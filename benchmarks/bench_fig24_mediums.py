"""Figure 24: impact of caching storage mediums.

Some prior systems cache KV only in HBM (10 GB budget here, per the
paper); adding DRAM helps a little; AttentionStore's SSD tier is what
delivers the high hit rates (86/71/89/90 % in the paper) and the GPU-time
wins.
"""

from _shared import EVAL_MODEL_NAMES, end_to_end_run, once, parallel_runs

from repro.analysis import format_table, percent
from repro.config import ServingMode, StoreConfig
from repro.models import GiB, TiB

CONFIGS = {
    "HBM only": StoreConfig(hbm_cache_bytes=10 * GiB, dram_bytes=0, ssd_bytes=0),
    "HBM+DRAM": StoreConfig(hbm_cache_bytes=10 * GiB, dram_bytes=128 * GiB, ssd_bytes=0),
    "HBM+DRAM+SSD": StoreConfig(
        hbm_cache_bytes=10 * GiB, dram_bytes=128 * GiB, ssd_bytes=10 * TiB
    ),
}


def run_all():
    specs = {
        f"{name}|{label}": dict(
            model_name=name, mode=ServingMode.CACHED, store_config=store
        )
        for name in EVAL_MODEL_NAMES
        for label, store in CONFIGS.items()
    }
    by_key = parallel_runs(specs)  # honours --jobs / REPRO_BENCH_JOBS
    return {
        (name, label): by_key[f"{name}|{label}"]
        for name in EVAL_MODEL_NAMES
        for label in CONFIGS
    }


def test_fig24_storage_mediums(benchmark):
    results = once(benchmark, run_all)
    print()
    rows = []
    for name in EVAL_MODEL_NAMES:
        for label in CONFIGS:
            s = results[(name, label)].summary
            rows.append(
                [name, label, percent(s.hit_rate), f"{s.gpu_time / 3600:.2f}"]
            )
    print(
        format_table(
            ["model", "cache tiers", "hit rate", "GPU (h)"],
            rows,
            title="Figure 24 — caching storage mediums",
        )
    )
    clear_wins = read_back = 0
    for name in EVAL_MODEL_NAMES:
        hbm = results[(name, "HBM only")].summary
        dram = results[(name, "HBM+DRAM")].summary
        full_run = results[(name, "HBM+DRAM+SSD")]
        full = full_run.summary
        # Shape: a strict hit-rate ladder; HBM alone is nearly useless.
        assert hbm.hit_rate < 0.35, name
        assert hbm.hit_rate <= dram.hit_rate + 0.02, name
        # The SSD tier can add a hit only where it read something back (a
        # prefetch or a disk hit); where it read nothing — a small KV that
        # fits DRAM, or spilled items no later turn reads — the rows match.
        if full_run.store_stats.prefetches + full.hits_disk > 0:
            assert dram.hit_rate < full.hit_rate, name
            read_back += 1
        else:
            assert dram.hit_rate == full.hit_rate, name
        # GPU time: the SSD tier wins for every model except (at most)
        # LLaMA-65B, whose 2.5 MB/token loads leave CA's GPU time within a
        # few percent of recompute in this calibration.
        assert full.gpu_time < hbm.gpu_time * 1.05, name
        if full.gpu_time < hbm.gpu_time:
            clear_wins += 1
    assert clear_wins >= 3
    # The SSD tier is what delivers the high hit rates: it reads back, and
    # so lifts the hit rate, for most models.
    assert read_back >= 3
