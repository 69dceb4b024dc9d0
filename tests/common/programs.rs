//! Program generators: every compiled test family the engines run.

use prt_suite::prelude::*;

/// A compiled test under campaign: a program bank and the backgrounds a
/// campaign runs it under. Single programs are one-entry banks.
pub struct Subject {
    pub bank: ProgramBank,
    pub backgrounds: Vec<u64>,
}

impl Subject {
    /// One program, run under the background it was compiled for.
    pub fn single(program: TestProgram) -> Subject {
        let background = program.background().unwrap_or(0);
        Subject { bank: ProgramBank::new([(background, program)]), backgrounds: vec![background] }
    }

    /// Every program of `bank`, under its own background.
    pub fn bank(bank: ProgramBank) -> Subject {
        let backgrounds = bank.backgrounds();
        Subject { bank, backgrounds }
    }

    /// The first background's program.
    pub fn program(&self) -> &TestProgram {
        self.bank.program(self.backgrounds[0]).expect("compiled background")
    }

    pub fn name(&self) -> &str {
        self.program().name()
    }

    /// Ports the campaign must pool: the widest program's.
    pub fn ports(&self) -> usize {
        self.backgrounds
            .iter()
            .filter_map(|&bg| self.bank.program(bg))
            .map(|p| p.ports())
            .max()
            .unwrap_or(1)
    }
}

/// The library March test at `pick` (wrapping).
pub fn march_test(pick: usize) -> MarchTest {
    let tests = march_library::all();
    tests[pick % tests.len()].clone()
}

/// `test` compiled with the verdict-only early exit under `background`
/// (masked to the word width).
pub fn march(test: &MarchTest, geom: Geometry, background: u64) -> Subject {
    let executor = Executor::new().with_background(background & geom.data_mask());
    Subject::single(executor.stop_at_first_mismatch().compile(test, geom))
}

/// `test` compiled without the early exit: every read is observed, as
/// dictionaries and checkpointed campaigns run it.
pub fn march_observed(test: &MarchTest, geom: Geometry) -> TestProgram {
    Executor::new().compile(test, geom)
}

/// `test` compiled once per standard background of the word width, as a
/// multi-background [`ProgramBank`].
pub fn march_bank(test: &MarchTest, geom: Geometry) -> Subject {
    let executor = Executor::new().stop_at_first_mismatch();
    let backgrounds = prt_march::coverage::standard_backgrounds(geom.width());
    Subject::bank(prt_march::coverage::compile_bank(test, geom, &executor, &backgrounds))
}

/// The π-test over GF(16) with polynomial `[1, 2, 2]` and seeds `s0`, `s1`.
pub fn pi_test(s0: u64, s1: u64) -> PiTest {
    let field = Field::new(4, 0b1_0011).expect("GF(16)");
    PiTest::new(field, &[1, 2, 2], &[s0, s1]).expect("config")
}

/// [`pi_test`] compiled for `ports` ports (1, 2 or 4).
pub fn pi(s0: u64, s1: u64, geom: Geometry, ports: usize) -> Subject {
    let pi = pi_test(s0, s1);
    let program = match ports {
        1 => pi.compile(geom),
        2 => pi.compile_dual_port(geom, None),
        4 => pi.compile_quad_port(geom),
        _ => panic!("π compiles for 1, 2 or 4 ports, not {ports}"),
    };
    Subject::single(program.expect("compile"))
}

/// The GF(2) PRT scheme at `which` (wrapping): standard3, standard4,
/// plain3, plain5.
pub fn scheme(which: usize, geom: Geometry) -> Subject {
    let field = Field::new(1, 0b11).expect("GF(2)");
    let scheme = match which % 4 {
        0 => PrtScheme::standard3(field),
        1 => PrtScheme::standard4(field),
        2 => PrtScheme::plain(field, 3),
        _ => PrtScheme::plain(field, 5),
    };
    Subject::single(scheme.expect("scheme").compile(geom).expect("compile"))
}

/// The standard 4-bit bit-plane scheme of `rounds` rounds.
pub fn plane(rounds: usize, geom: Geometry) -> Subject {
    let scheme = PlaneScheme::standard(Poly2::from_bits(0b111), 4, rounds).expect("scheme");
    Subject::single(scheme.compile(geom).expect("compile"))
}
