//! Criterion bench for E3/E8: the single-operation SAT check under each
//! engine (exact counting, algebraic expansion, Monte-Carlo sampling) on the
//! paper's worked examples, and the exact engine's scaling with `n`.

use cnf::generators::{self, RandomKSatConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use nbl_noise::{CarrierBank, UniformBank};
use nbl_sat_core::{
    AlgebraicEngine, EngineConfig, NblEngine, NblSatInstance, SampledEngine, SymbolicEngine,
};

fn engines_on_worked_examples(c: &mut Criterion) {
    let cases = [
        ("example6_sat", cnf::generators::example6_sat()),
        ("example7_unsat", cnf::generators::example7_unsat()),
        ("section4_sat", cnf::generators::section4_sat_instance()),
        ("section4_unsat", cnf::generators::section4_unsat_instance()),
    ];
    let mut group = c.benchmark_group("sat_check");
    for (name, formula) in cases {
        let instance = NblSatInstance::new(&formula).unwrap();
        group.bench_function(format!("symbolic/{name}"), |b| {
            b.iter(|| {
                SymbolicEngine::new()
                    .estimate(&instance, &instance.empty_bindings())
                    .unwrap()
            })
        });
        group.bench_function(format!("algebraic/{name}"), |b| {
            b.iter(|| {
                AlgebraicEngine::new()
                    .estimate(&instance, &instance.empty_bindings())
                    .unwrap()
            })
        });
        group.bench_function(format!("sampled_20k/{name}"), |b| {
            b.iter(|| {
                SampledEngine::new(
                    EngineConfig::new()
                        .with_seed(5)
                        .with_max_samples(20_000)
                        .with_check_interval(20_000),
                )
                .estimate(&instance, &instance.empty_bindings())
                .unwrap()
            })
        });
    }
    group.finish();
}

/// One exact check per formula on four fixed random 3-SAT formulas at
/// α = 4.26, for n = 18 and n = 24 (both inside the engine's 26-free-variable
/// cap). Enumerating every assignment costs 2^6 = 64× more at n = 24; CI
/// requires both records and asserts that n = 24 costs at most 16× n = 18.
fn symbolic_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("symbolic_scaling");
    for n in [18, 24] {
        let instances: Vec<NblSatInstance> = (0..4u64)
            .map(|seed| {
                let config = RandomKSatConfig::from_ratio(n, 4.26, 3).with_seed(seed + 100);
                NblSatInstance::new(&generators::random_ksat(&config).unwrap()).unwrap()
            })
            .collect();
        group.bench_function(format!("n{n}"), |b| {
            b.iter(|| {
                for instance in &instances {
                    SymbolicEngine::new()
                        .estimate(instance, &instance.empty_bindings())
                        .unwrap();
                }
            })
        });
    }
    group.finish();
}

/// The Monte-Carlo engine against its own noise source, on four fixed random
/// 3-SAT formulas at n = 5, α = 4.26. `estimate` runs one
/// `SampledEngine::estimate` per formula with the cap and the convergence
/// check both at 20 000 samples, so every run draws and evaluates exactly
/// 20 000 samples; `draw` makes 20 000 `next_sample` calls per formula on a
/// `UniformBank` of the same source count. CI requires both records and
/// asserts that `estimate` costs at most 1.6× `draw`: one sample at a time,
/// evaluation alone costs about as much as drawing.
fn sampled_kernel(c: &mut Criterion) {
    const SAMPLES: u64 = 20_000;
    let instances: Vec<NblSatInstance> = (0..4u64)
        .map(|seed| {
            let config = RandomKSatConfig::from_ratio(5, 4.26, 3).with_seed(seed + 100);
            NblSatInstance::new(&generators::random_ksat(&config).unwrap()).unwrap()
        })
        .collect();
    let config = EngineConfig::new()
        .with_seed(5)
        .with_max_samples(SAMPLES)
        .with_check_interval(SAMPLES);
    let mut group = c.benchmark_group("sampled_kernel");
    group.bench_function("estimate", |b| {
        b.iter(|| {
            for instance in &instances {
                let estimate = SampledEngine::new(config)
                    .estimate(instance, &instance.empty_bindings())
                    .unwrap();
                assert_eq!(estimate.samples, SAMPLES);
            }
        })
    });
    group.bench_function("draw", |b| {
        b.iter(|| {
            for instance in &instances {
                let mut bank = UniformBank::new(instance.num_sources(), 5);
                let mut values = vec![0.0; instance.num_sources()];
                for _ in 0..SAMPLES {
                    bank.next_sample(&mut values);
                }
                criterion::black_box(&values);
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    engines_on_worked_examples,
    symbolic_scaling,
    sampled_kernel
);
criterion_main!(benches);
