import sys
import threading

from bindcore._stack import call_with_deep_stack


def depth(n: int) -> int:
    return 0 if n == 0 else 1 + depth(n - 1)


def test_overlapping_deep_calls_share_the_recursion_limit():
    # A enters and blocks, B enters and blocks, A ends; B must still have
    # the raised limit, and the last call to end restores the old one
    before = sys.getrecursionlimit()
    a_in, a_go, b_in, b_go = (threading.Event() for _ in range(4))
    results: dict[str, object] = {}

    def blocked(entered: threading.Event, go: threading.Event, n: int) -> int:
        entered.set()
        assert go.wait(60)
        return depth(n)

    def caller(name: str, *args) -> None:
        try:
            results[name] = call_with_deep_stack(blocked, *args)
        except Exception as exc:
            results[name] = exc

    a = threading.Thread(target=caller, args=("a", a_in, a_go, 10))
    b = threading.Thread(target=caller, args=("b", b_in, b_go, 20_000))
    a.start()
    assert a_in.wait(60)
    b.start()
    assert b_in.wait(60)
    a_go.set()
    a.join(60)
    assert not a.is_alive()
    b_go.set()
    b.join(60)
    assert not b.is_alive()
    assert results == {"a": 10, "b": 20_000}
    assert sys.getrecursionlimit() == before


def test_concurrent_deep_calls_stress():
    # more callers than cores, switching often: the count of active calls
    # must not lose an update, or a limit is restored under a running call
    before = sys.getrecursionlimit()
    interval = sys.getswitchinterval()
    failures: list[BaseException] = []

    def worker() -> None:
        for _ in range(10):
            try:
                assert call_with_deep_stack(depth, 5_000) == 5_000
            except BaseException as exc:
                failures.append(exc)
                raise

    threads = [threading.Thread(target=worker) for _ in range(6)]
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert sys.getrecursionlimit() == before
