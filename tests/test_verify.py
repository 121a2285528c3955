from edgejump import verify


def test_memo_tables_are_bounded():
    cache = {}
    for k in range(verify.CACHE_SIZE + 5):
        assert verify._memo(cache, k, lambda k=k: k * k) == k * k
    assert list(cache) == list(range(5, verify.CACHE_SIZE + 5))  # oldest out first
    assert verify._memo(cache, 5, lambda: None) == 25  # a hit makes nothing


def test_op_system_cached_reuses_its_system():
    verify._OP_CACHE.clear()
    a = verify.op_system_cached(0.4j, 32, 0.5)
    assert verify.op_system_cached(0.4j, 32, 0.5) is a
    assert len(verify._OP_CACHE) == 1


def test_bulk_hankel_passes_at_defaults():
    rep = verify.check_bulk_hankel()
    assert rep.passed, rep.detail
    assert [r.label for r in rep.rows] == ["bulk-hankel"] * 3 + ["bulk-hankel-edge-degradation"]
