//! Machine-power integration: the Theorem 3.1 counter simulation is
//! faithful across databases, and the §1 halting relation behaves as
//! the non-closure argument requires.

use recdb_core::{Fuel, RecursiveRelation};
use recdb_hsdb::{infinite_clique, paper_example_graph, unary_cells, CellSize};
use recdb_qlhs::{compile_counter, HsInterp, Val};
use recdb_turing::{
    decode_program, encode_program, halts_within, projection_search, Asm, CounterProgram, Instr,
};

/// gcd by repeated subtraction — a nontrivial pure counter program.
fn gcd_program() -> CounterProgram {
    // r0, r1 hold the inputs; loop: if r0==0 halt (result r1);
    // if r1==0 halt (result r0 — move to r1 first);
    // if r0 >= r1 … subtraction-based Euclid is long; use the simpler
    // "subtract the smaller from the larger" via destructive compare:
    // copy r0,r1 to r2,r3; decrement both until one hits zero.
    Asm::new()
        .label("loop")
        .jz(0, "done_r1") // gcd(0, y) = y
        .jz(1, "done_r0") // gcd(x, 0) = x
        .instr(Instr::Copy { src: 0, dst: 2 })
        .instr(Instr::Copy { src: 1, dst: 3 })
        .label("cmp")
        .jz(2, "r0_smaller") // r0 ≤ r1: r1 -= r0
        .jz(3, "r1_smaller") // r1 < r0: r0 -= r1
        .instr(Instr::Dec(2))
        .instr(Instr::Dec(3))
        .jmp("cmp")
        .label("r0_smaller")
        // r1 -= r0 (by copy: r1 = r3 left-over after r0 decrements)
        .instr(Instr::Copy { src: 3, dst: 1 })
        .jmp("loop")
        .label("r1_smaller")
        .instr(Instr::Copy { src: 2, dst: 0 })
        .jmp("loop")
        .label("done_r1")
        .instr(Instr::Copy { src: 1, dst: 0 })
        .instr(Instr::Halt(true))
        .label("done_r0")
        .instr(Instr::Halt(true))
        .assemble()
}

#[test]
fn native_gcd_is_correct() {
    let p = gcd_program();
    for (a, b, g) in [(6, 4, 2), (9, 3, 3), (5, 7, 1), (0, 4, 4), (4, 0, 4)] {
        let out = p.run_pure(&[a, b], &mut Fuel::new(100_000)).unwrap();
        assert_eq!(out.registers[0], g, "gcd({a},{b})");
    }
}

#[test]
fn compiled_gcd_agrees_with_native_on_multiple_databases() {
    // Theorem 3.1's fidelity AND genericity: the compiled QL program
    // computes the same number (as a rank) regardless of which
    // hs-r-db it runs over.
    let p = gcd_program();
    let inputs = [(4u64, 2u64), (3, 2)];
    for (a, b) in inputs {
        let native = p
            .run_pure(&[a, b], &mut Fuel::new(100_000))
            .unwrap()
            .registers[0];
        let cc = compile_counter(&p, &[a, b]).unwrap();
        // Note: the random structures are excluded — their BIT-coded
        // characteristic trees are only practical to depth ≈ 3, while
        // gcd registers reach rank 4. The component graph's tree stays
        // cheap at any depth.
        for hs in [
            infinite_clique(),
            unary_cells(vec![CellSize::Infinite]),
            paper_example_graph(),
        ] {
            let mut interp = HsInterp::new(&hs);
            let mut env: Vec<Val> = Vec::new();
            recdb_qlhs::exec(&mut interp, &cc.prog, &mut env, &mut Fuel::new(20_000_000))
                .expect("compiled gcd runs");
            assert_eq!(
                env[cc.reg_var(0)].rank as u64,
                native,
                "gcd({a},{b}) on {:?}",
                hs.database().name()
            );
        }
    }
}

#[test]
fn halting_relation_projection_is_only_semi_decidable() {
    // The §1 argument, executably: R(x,y,z) is decidable for every
    // triple, but the projection ∃x R(x,y,z) can only be *searched* —
    // and for diverging machines every finite search fails.
    let rel = recdb_turing::step_bounded_halting_relation();
    // A halting machine: countdown.
    let halting = encode_program(
        &Asm::new()
            .label("l")
            .jz(0, "end")
            .instr(Instr::Dec(0))
            .jmp("l")
            .label("end")
            .instr(Instr::Halt(true))
            .assemble(),
    )
    .unwrap();
    // A diverging machine.
    let diverging = encode_program(&CounterProgram {
        code: vec![Instr::Jmp(0)],
    })
    .unwrap();
    // R is decided instantly on any triple:
    use recdb_core::Elem;
    assert!(rel.contains(&[Elem(100), Elem(halting), Elem(7)]));
    assert!(!rel.contains(&[Elem(2), Elem(halting), Elem(7)]));
    assert!(!rel.contains(&[Elem(1000), Elem(diverging), Elem(0)]));
    // The projection: search succeeds for the halting machine…
    assert!(projection_search(halting, 7, 100).is_some());
    // …and no finite bound certifies the diverging one.
    for bound in [10, 100, 1000] {
        assert_eq!(projection_search(diverging, 0, bound), None);
    }
}

#[test]
fn godel_numbering_is_total_and_consistent() {
    // Every y is a machine; encode∘decode is identity on the image.
    for y in 0..100u64 {
        let p = decode_program(y);
        if let Some(code) = encode_program(&p) {
            assert_eq!(decode_program(code), p);
        }
        // halts_within is total.
        let _ = halts_within(20, y, 1);
    }
}

#[test]
fn compiled_program_runs_identically_under_reruns() {
    // Determinism check of the whole QLhs stack.
    let p = gcd_program();
    let cc = compile_counter(&p, &[3, 2]).unwrap();
    let hs = infinite_clique();
    let mut results = Vec::new();
    for _ in 0..2 {
        let mut interp = HsInterp::new(&hs);
        let mut env: Vec<Val> = Vec::new();
        recdb_qlhs::exec(&mut interp, &cc.prog, &mut env, &mut Fuel::new(20_000_000)).unwrap();
        results.push(env[cc.reg_var(0)].clone());
    }
    assert_eq!(results[0], results[1]);
}
