//! The fused-sweep contract: trace-once/replay-many output is
//! **byte-identical** to the per-point serial sweep — for every workload
//! in the 77-entry catalog, through the engine, at any thread count.
//!
//! This is the guard the ISSUE demands: the fused path may only ship
//! while `assemble_sweep` produces the same bits as the reference path.

use bdb_engine::{Engine, EngineConfig};
use bdb_sim::{sweep_per_point, sweep_replay, SweepFamily, SweepResult, PAPER_SWEEP_KIB};
use bdb_trace::TraceBuffer;
use bdb_workloads::{catalog, CatalogSet, Scale};

fn assert_bit_identical(fused: &SweepResult, reference: &SweepResult, id: &str) {
    assert_eq!(fused, reference, "{id}: sweep results differ");
    for (curve, ref_curve) in [
        (&fused.instruction, &reference.instruction),
        (&fused.data, &reference.data),
        (&fused.unified, &reference.unified),
    ] {
        assert_eq!(curve.label, ref_curve.label, "{id}: label differs");
        for ((kib, ratio), (ref_kib, ref_ratio)) in curve.points.iter().zip(&ref_curve.points) {
            assert_eq!(kib, ref_kib, "{id}: capacity axis differs");
            assert_eq!(
                ratio.to_bits(),
                ref_ratio.to_bits(),
                "{id}: {:?} ratio bits differ at {kib} KiB",
                curve.metric
            );
        }
    }
}

#[test]
fn fused_sweep_is_byte_identical_across_full_catalog() {
    let workloads = CatalogSet::Full.workloads();
    assert_eq!(workloads.len(), 77);
    let family = SweepFamily::atom();
    let scale = Scale::tiny();
    // A small/medium/large capacity subset keeps debug-mode runtime
    // bounded; the full paper axis is swept on representatives below.
    let caps = [16u64, 128, 2048];
    for def in &workloads {
        let buffer = TraceBuffer::capture(|sink| {
            let _ = def.run(sink, scale);
        });
        let fused = sweep_replay(&family, &def.spec.id, &caps, &buffer);
        let per_point = sweep_per_point(&family, &def.spec.id, &caps, |sink| {
            let _ = def.run(sink, scale);
        });
        assert_bit_identical(&fused, &per_point, &def.spec.id);
    }
}

#[test]
fn fused_sweep_matches_per_point_on_full_paper_axis() {
    let family = SweepFamily::atom();
    let scale = Scale::tiny();
    for def in catalog::representatives().iter().take(4) {
        let fused = bdb_sim::sweep(&def.spec.id, &PAPER_SWEEP_KIB, |sink| {
            let _ = def.run(sink, scale);
        });
        let per_point = sweep_per_point(&family, &def.spec.id, &PAPER_SWEEP_KIB, |sink| {
            let _ = def.run(sink, scale);
        });
        assert_bit_identical(&fused, &per_point, &def.spec.id);
    }
}

#[test]
fn point_parallel_sweep_is_byte_identical_across_full_catalog() {
    // The ISSUE's acceptance contract: sweep bytes stay identical to
    // serial across `BDB_POINT_THREADS` ∈ {1, 2, 4} for all 77
    // workloads. Widths are pinned via the builder (the same code path
    // the env knob feeds) so the test never mutates the process env.
    let workloads = CatalogSet::Full.workloads();
    assert_eq!(workloads.len(), 77);
    let scale = Scale::tiny();
    let caps = [16u64, 128, 2048];
    let serial = Engine::serial();
    let engines: Vec<Engine> = [1usize, 2, 4]
        .iter()
        .map(|&t| Engine::new(EngineConfig::default().threads(2).point_threads(t)))
        .collect();
    for def in &workloads {
        let reference = serial.sweep(&def.spec.id, &caps, |sink| {
            let _ = def.run(sink, scale);
        });
        for (engine, threads) in engines.iter().zip([1usize, 2, 4]) {
            let result = engine.sweep(&def.spec.id, &caps, |sink| {
                let _ = def.run(sink, scale);
            });
            assert_bit_identical(
                &result,
                &reference,
                &format!("{} @ {threads} point threads", def.spec.id),
            );
        }
    }
}

#[test]
fn sweep_all_is_byte_identical_to_serial_loop() {
    // Workload-level fan-out composed with point-level fan-out must not
    // change a single bit relative to sweeping each job serially.
    let scale = Scale::tiny();
    let caps = [16u64, 128, 2048];
    let defs: Vec<_> = catalog::representatives().into_iter().take(6).collect();
    let serial = Engine::serial();
    let reference: Vec<SweepResult> = defs
        .iter()
        .map(|def| {
            serial.sweep(&def.spec.id, &caps, |sink| {
                let _ = def.run(sink, scale);
            })
        })
        .collect();
    let jobs: Vec<(String, _)> = defs
        .iter()
        .map(|def| {
            (
                def.spec.id.clone(),
                move |sink: &mut dyn bdb_trace::TraceSink| {
                    let _ = def.run(sink, scale);
                },
            )
        })
        .collect();
    for threads in [2usize, 4] {
        let engine = Engine::new(EngineConfig::default().threads(threads));
        let batch = engine.sweep_all(&jobs, &caps);
        assert_eq!(batch.len(), reference.len());
        for ((got, want), def) in batch.iter().zip(&reference).zip(&defs) {
            assert_bit_identical(got, want, &format!("{} via sweep_all", def.spec.id));
        }
    }
}

#[test]
fn engine_sweep_agrees_with_reference_across_thread_counts() {
    let scale = Scale::tiny();
    let caps = [16u64, 256];
    let defs = catalog::representatives();
    let def = &defs[0];
    let reference = sweep_per_point(&SweepFamily::atom(), &def.spec.id, &caps, |sink| {
        let _ = def.run(sink, scale);
    });
    for threads in [1usize, 4] {
        let engine = Engine::new(
            EngineConfig::default()
                .threads(threads)
                .without_memory_cache(),
        );
        let result = engine.sweep(&def.spec.id, &caps, |sink| {
            let _ = def.run(sink, scale);
        });
        assert_bit_identical(&result, &reference, &def.spec.id);
    }
}
