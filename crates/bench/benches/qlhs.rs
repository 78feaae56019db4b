//! E9 — the QLhs interpreter (Theorem 3.1): per-operator cost, whole
//! programs on representations of varying width, the finitary-QL
//! baseline, and the compiled counter machine.

use recdb_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use recdb_core::{FiniteStructure, Fuel};
use recdb_hsdb::infinite_clique;
use recdb_qlhs::{compile_counter, parse_program, FinInterp, HsInterp, Val};
use recdb_turing::{Asm, Instr};
use std::hint::black_box;
use std::time::Duration;

fn bench_operators(c: &mut Criterion) {
    let mut g = c.benchmark_group("E9/operators");
    let programs = [
        ("rel", "Y1 := R1;"),
        ("and", "Y1 := R1 & E;"),
        ("not", "Y1 := !R1;"),
        ("up", "Y1 := up(R1);"),
        ("down", "Y1 := down(R1);"),
        ("swap", "Y1 := swap(R1);"),
        ("up_up_down", "Y1 := down(up(up(R1)));"),
    ];
    for (name, hs) in recdb_bench::hs_zoo() {
        if name == "rado" {
            continue; // up(up(·)) exceeds the BIT-coding depth
        }
        for (op, src) in &programs {
            let prog = parse_program(src).unwrap();
            // Skip programs that are ill-typed for this schema (e.g.
            // `R1 & E` when R1 is unary): a rank mismatch is a static
            // property, probed once.
            if HsInterp::new(&hs)
                .run(&prog, &mut Fuel::new(10_000_000))
                .is_err()
            {
                continue;
            }
            g.bench_function(BenchmarkId::new(*op, name), |b| {
                b.iter(|| {
                    let mut interp = HsInterp::new(&hs);
                    black_box(interp.run(&prog, &mut Fuel::new(10_000_000)).unwrap().len())
                })
            });
        }
    }
    g.finish();
}

fn bench_finitary_baseline(c: &mut Criterion) {
    let mut g = c.benchmark_group("E9/finitary_ql");
    for n in [4u64, 8, 16] {
        // A path graph of n nodes.
        let st = FiniteStructure::undirected_graph(0..n, (0..n - 1).map(|i| (i, i + 1)));
        let prog = parse_program("Y1 := down(up(R1) & swap(up(R1)));").unwrap();
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    FinInterp::new(&st)
                        .run(&prog, &mut Fuel::new(10_000_000))
                        .unwrap()
                        .len(),
                )
            })
        });
    }
    g.finish();
}

fn bench_compiled_counter(c: &mut Criterion) {
    // Addition a+b by transfer, compiled to QL, on the clique.
    let add = Asm::new()
        .label("loop")
        .jz(1, "done")
        .instr(Instr::Dec(1))
        .instr(Instr::Inc(0))
        .jmp("loop")
        .label("done")
        .instr(Instr::Halt(true))
        .assemble();
    let hs = infinite_clique();
    let mut g = c.benchmark_group("E9/compiled_addition");
    for (a, b_) in [(1u64, 1u64), (2, 2), (3, 2)] {
        let cc = compile_counter(&add, &[a, b_]).unwrap();
        let label = format!("{a}+{b_}");
        g.bench_function(BenchmarkId::from_parameter(label), |bch| {
            bch.iter(|| {
                let mut interp = HsInterp::new(&hs);
                let mut env: Vec<Val> = Vec::new();
                recdb_qlhs::exec(&mut interp, &cc.prog, &mut env, &mut Fuel::new(10_000_000))
                    .unwrap();
                black_box(env[cc.reg_var(0)].rank)
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_millis(700))
        .warm_up_time(Duration::from_millis(200));
    targets = bench_operators, bench_finitary_baseline, bench_compiled_counter
}
criterion_main!(benches);
