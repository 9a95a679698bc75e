//! The cycle-accurate behavioral simulator.

use crate::trace::Trace;
use gm_rtl::{elaborate, Bv, Elab, Expr, Module, Result, SignalId, Stmt, StmtId, StmtKind};

/// Which branch of a control statement was taken.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BranchOutcome {
    /// The `then` branch of an `if`.
    Then,
    /// The `else` branch of an `if` (taken even when the branch is empty).
    Else,
    /// Arm `index` of a `case`.
    Arm(u32),
    /// The `default` arm of a `case` (explicit or implicit fall-through).
    Default,
}

/// The syntactic role of an expression reported to observers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExprRole {
    /// Condition of an `if`.
    Condition,
    /// Subject of a `case`.
    CaseSubject,
    /// Right-hand side of an assignment.
    AssignRhs,
}

/// Observation hooks for simulation events.
///
/// Coverage collectors implement this trait; all methods default to no-ops
/// so observers only pay for what they watch. `values` slices are indexed
/// by [`SignalId::index`] and reflect the environment at the moment of the
/// event (pre-edge values inside sequential processes).
pub trait SimObserver {
    /// A statement was executed.
    fn on_stmt(&mut self, _stmt: StmtId) {}
    /// A control statement resolved to a branch.
    fn on_branch(&mut self, _stmt: StmtId, _outcome: BranchOutcome) {}
    /// An expression was evaluated in the given role with the given
    /// environment.
    fn on_expr(&mut self, _stmt: StmtId, _role: ExprRole, _expr: &Expr, _values: &[Bv]) {}
    /// A cycle finished: `values` holds the settled pre-edge snapshot.
    fn on_cycle_end(&mut self, _cycle: u64, _values: &[Bv]) {}
    /// A replay is about to run the `index`-th segment of its range
    /// from reset (before its reset cycle, if the design has one). A
    /// zero-length segment on a reset-free design reports no cycle, so
    /// this is how an observer tells segments apart.
    fn on_segment_start(&mut self, _index: usize) {}
}

/// An observer that ignores every event, from either engine (it is also
/// a [`crate::BatchObserver`]).
#[derive(Debug, Default, Clone, Copy)]
pub struct NopObserver;

impl SimObserver for NopObserver {}

/// Forwards events to several observers in order.
#[derive(Default)]
pub struct MultiObserver<'a> {
    observers: Vec<&'a mut dyn SimObserver>,
}

impl std::fmt::Debug for MultiObserver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MultiObserver({} observers)", self.observers.len())
    }
}

impl<'a> MultiObserver<'a> {
    /// Creates an empty multiplexer.
    pub fn new() -> Self {
        MultiObserver {
            observers: Vec::new(),
        }
    }

    /// Adds an observer; events are delivered in insertion order.
    pub fn push(&mut self, obs: &'a mut dyn SimObserver) -> &mut Self {
        self.observers.push(obs);
        self
    }
}

impl SimObserver for MultiObserver<'_> {
    fn on_stmt(&mut self, stmt: StmtId) {
        for o in &mut self.observers {
            o.on_stmt(stmt);
        }
    }
    fn on_branch(&mut self, stmt: StmtId, outcome: BranchOutcome) {
        for o in &mut self.observers {
            o.on_branch(stmt, outcome);
        }
    }
    fn on_expr(&mut self, stmt: StmtId, role: ExprRole, expr: &Expr, values: &[Bv]) {
        for o in &mut self.observers {
            o.on_expr(stmt, role, expr, values);
        }
    }
    fn on_cycle_end(&mut self, cycle: u64, values: &[Bv]) {
        for o in &mut self.observers {
            o.on_cycle_end(cycle, values);
        }
    }
    fn on_segment_start(&mut self, index: usize) {
        for o in &mut self.observers {
            o.on_segment_start(index);
        }
    }
}

/// A cycle-accurate interpreter for an elaborated [`Module`].
///
/// Each [`Simulator::step`] models one clock cycle: inputs are applied,
/// combinational processes settle in topological order (blocking
/// semantics), observers sample the settled pre-edge state, then all
/// sequential processes fire with non-blocking semantics.
///
/// # Examples
///
/// ```
/// use gm_sim::Simulator;
/// use gm_rtl::{parse_verilog, Bv};
///
/// let m = parse_verilog(
///     "module inv(input a, output y); assign y = ~a; endmodule")?;
/// let mut sim = Simulator::new(&m)?;
/// let a = m.require("a")?;
/// let y = m.require("y")?;
/// sim.set_input(a, Bv::one_bit());
/// sim.step();
/// assert_eq!(sim.value(y), Bv::zero_bit());
/// # Ok::<(), gm_rtl::RtlError>(())
/// ```
#[derive(Debug)]
pub struct Simulator<'m> {
    module: &'m Module,
    elab: Elab,
    values: Vec<Bv>,
    cycle: u64,
}

impl<'m> Simulator<'m> {
    /// Elaborates `module` and constructs a simulator at the reset state.
    ///
    /// # Errors
    ///
    /// Propagates elaboration errors (see [`gm_rtl::elaborate`]).
    pub fn new(module: &'m Module) -> Result<Self> {
        let elab = elaborate(module)?;
        Ok(Self::with_elab(module, elab))
    }

    /// Constructs a simulator from an already elaborated module.
    pub fn with_elab(module: &'m Module, elab: Elab) -> Self {
        let values = module.signals().iter().map(|s| s.init()).collect();
        Simulator {
            module,
            elab,
            values,
            cycle: 0,
        }
    }

    /// The module being simulated.
    pub fn module(&self) -> &'m Module {
        self.module
    }

    /// The elaboration backing this simulator.
    pub fn elab(&self) -> &Elab {
        &self.elab
    }

    /// The number of completed cycles.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The current value of a signal.
    pub fn value(&self, sig: SignalId) -> Bv {
        self.values[sig.index()]
    }

    /// The full current value snapshot, indexed by [`SignalId::index`].
    pub fn values(&self) -> &[Bv] {
        &self.values
    }

    /// Drives an input (or forces any signal) for the current cycle.
    /// Values are truncated/extended to the signal width.
    pub fn set_input(&mut self, sig: SignalId, value: Bv) {
        let w = self.module.signal_width(sig);
        self.values[sig.index()] = value.resize(w);
    }

    /// Drives several inputs at once.
    pub fn set_inputs(&mut self, inputs: &[(SignalId, Bv)]) {
        for (s, v) in inputs {
            self.set_input(*s, *v);
        }
    }

    /// Returns all registers to their declared init values and resets the
    /// cycle counter. Input values are cleared to zero.
    pub fn reset_to_initial(&mut self) {
        for (i, s) in self.module.signals().iter().enumerate() {
            self.values[i] = s.init();
        }
        self.cycle = 0;
    }

    /// Settles combinational logic without advancing the clock.
    pub fn settle(&mut self) {
        self.settle_observed(&mut NopObserver);
    }

    /// Settles combinational logic, reporting events to `obs`.
    pub fn settle_observed(&mut self, obs: &mut dyn SimObserver) {
        for &pi in self.elab.comb_order() {
            let body: &[Stmt] = &self.module.processes()[pi].body;
            for st in body {
                exec_stmt(self.module, st, &mut self.values, None, obs);
            }
        }
    }

    /// Runs one full clock cycle: settle, sample, clock edge.
    pub fn step(&mut self) {
        self.step_observed(&mut NopObserver);
    }

    /// Runs one full clock cycle, reporting events to `obs`.
    ///
    /// `on_cycle_end` fires after combinational settling and before the
    /// clock edge, so the reported snapshot matches what a waveform viewer
    /// would show just before the edge.
    pub fn step_observed(&mut self, obs: &mut dyn SimObserver) {
        self.settle_observed(obs);
        obs.on_cycle_end(self.cycle, &self.values);
        // Clock edge: non-blocking updates.
        let mut updates: Vec<(SignalId, Bv)> = Vec::new();
        for &pi in self.elab.seq_processes() {
            let body: &[Stmt] = &self.module.processes()[pi].body;
            for st in body {
                exec_stmt(self.module, st, &mut self.values, Some(&mut updates), obs);
            }
        }
        for (sig, v) in updates {
            self.values[sig.index()] = v;
        }
        self.cycle += 1;
    }

    /// Simulates `vectors` (one input assignment per cycle) from the
    /// current state, returning the recorded trace.
    ///
    /// Each trace row is the settled pre-edge snapshot of *all* signals.
    pub fn run_vectors(
        &mut self,
        vectors: &[Vec<(SignalId, Bv)>],
        obs: &mut dyn SimObserver,
    ) -> Trace {
        let mut trace = Trace::for_module(self.module);
        for vec in vectors {
            self.set_inputs(vec);
            self.settle_observed(obs);
            obs.on_cycle_end(self.cycle, &self.values);
            trace.push_row(&self.values);
            // Finish the cycle: clock edge.
            let mut updates: Vec<(SignalId, Bv)> = Vec::new();
            for &pi in self.elab.seq_processes() {
                let body: &[Stmt] = &self.module.processes()[pi].body;
                for st in body {
                    exec_stmt(self.module, st, &mut self.values, Some(&mut updates), obs);
                }
            }
            for (sig, v) in updates {
                self.values[sig.index()] = v;
            }
            self.cycle += 1;
        }
        trace
    }
}

/// Executes one statement. When `updates` is `Some`, assignments are
/// non-blocking (deferred); otherwise they write through immediately.
fn exec_stmt(
    module: &Module,
    stmt: &Stmt,
    values: &mut Vec<Bv>,
    mut updates: Option<&mut Vec<(SignalId, Bv)>>,
    obs: &mut dyn SimObserver,
) {
    obs.on_stmt(stmt.id);
    match &stmt.kind {
        StmtKind::Assign { lhs, rhs } => {
            obs.on_expr(stmt.id, ExprRole::AssignRhs, rhs, values);
            let w = module.signal_width(*lhs);
            let v = rhs.eval(&|s: SignalId| values[s.index()]).resize(w);
            match updates {
                Some(u) => u.push((*lhs, v)),
                None => values[lhs.index()] = v,
            }
        }
        StmtKind::If {
            cond,
            then_body,
            else_body,
        } => {
            obs.on_expr(stmt.id, ExprRole::Condition, cond, values);
            let taken = cond.eval(&|s: SignalId| values[s.index()]).is_nonzero();
            obs.on_branch(
                stmt.id,
                if taken {
                    BranchOutcome::Then
                } else {
                    BranchOutcome::Else
                },
            );
            let body = if taken { then_body } else { else_body };
            for st in body {
                exec_stmt(module, st, values, updates.as_deref_mut(), obs);
            }
        }
        StmtKind::Case {
            subject,
            arms,
            default,
        } => {
            obs.on_expr(stmt.id, ExprRole::CaseSubject, subject, values);
            let subj = subject.eval(&|s: SignalId| values[s.index()]);
            let mut matched = None;
            'arms: for (i, arm) in arms.iter().enumerate() {
                for label in &arm.labels {
                    if label.bits() == subj.bits() {
                        matched = Some(i);
                        break 'arms;
                    }
                }
            }
            match matched {
                Some(i) => {
                    obs.on_branch(stmt.id, BranchOutcome::Arm(i as u32));
                    for st in &arms[i].body {
                        exec_stmt(module, st, values, updates.as_deref_mut(), obs);
                    }
                }
                None => {
                    obs.on_branch(stmt.id, BranchOutcome::Default);
                    if let Some(d) = default {
                        for st in d {
                            exec_stmt(module, st, values, updates.as_deref_mut(), obs);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_rtl::parse_verilog;

    const ARBITER2: &str = "
    module arbiter2(input clk, input rst, input req0, input req1,
                    output reg gnt0, output reg gnt1);
      always @(posedge clk)
        if (rst) begin
          gnt0 <= 0; gnt1 <= 0;
        end else begin
          gnt0 <= (~gnt0 & req0) | (gnt0 & req0 & ~req1);
          gnt1 <= (gnt0 & req1) | (~gnt0 & ~req0 & req1);
        end
    endmodule";

    #[test]
    fn combinational_logic_settles_in_order() {
        let m = parse_verilog(
            "module m(input a, output y);
               wire t;
               assign y = ~t;
               assign t = ~a;
             endmodule",
        )
        .unwrap();
        let mut sim = Simulator::new(&m).unwrap();
        let a = m.require("a").unwrap();
        let y = m.require("y").unwrap();
        sim.set_input(a, Bv::one_bit());
        sim.settle();
        assert_eq!(sim.value(y), Bv::one_bit());
        sim.set_input(a, Bv::zero_bit());
        sim.settle();
        assert_eq!(sim.value(y), Bv::zero_bit());
    }

    #[test]
    fn arbiter_round_robin_behaviour() {
        let m = parse_verilog(ARBITER2).unwrap();
        let mut sim = Simulator::new(&m).unwrap();
        let rst = m.require("rst").unwrap();
        let req0 = m.require("req0").unwrap();
        let req1 = m.require("req1").unwrap();
        let gnt0 = m.require("gnt0").unwrap();
        let gnt1 = m.require("gnt1").unwrap();

        // Reset.
        sim.set_input(rst, Bv::one_bit());
        sim.step();
        assert_eq!(sim.value(gnt0), Bv::zero_bit());
        sim.set_input(rst, Bv::zero_bit());

        // req0 alone: grant0 next cycle.
        sim.set_inputs(&[(req0, Bv::one_bit()), (req1, Bv::zero_bit())]);
        sim.step();
        assert_eq!(sim.value(gnt0), Bv::one_bit());
        assert_eq!(sim.value(gnt1), Bv::zero_bit());

        // Both request while gnt0 held: round-robin hands to port 1.
        sim.set_inputs(&[(req0, Bv::one_bit()), (req1, Bv::one_bit())]);
        sim.step();
        assert_eq!(sim.value(gnt0), Bv::zero_bit());
        assert_eq!(sim.value(gnt1), Bv::one_bit());
    }

    #[test]
    fn nonblocking_swap() {
        // Classic register swap only works with non-blocking semantics.
        let m = parse_verilog(
            "module m(input clk, input rst, output reg a, output reg b);
               always @(posedge clk)
                 if (rst) begin a <= 1; b <= 0; end
                 else begin a <= b; b <= a; end
             endmodule",
        )
        .unwrap();
        let mut sim = Simulator::new(&m).unwrap();
        let rst = m.require("rst").unwrap();
        let a = m.require("a").unwrap();
        let b = m.require("b").unwrap();
        sim.set_input(rst, Bv::one_bit());
        sim.step();
        sim.set_input(rst, Bv::zero_bit());
        assert_eq!(
            (sim.value(a), sim.value(b)),
            (Bv::one_bit(), Bv::zero_bit())
        );
        sim.step();
        assert_eq!(
            (sim.value(a), sim.value(b)),
            (Bv::zero_bit(), Bv::one_bit())
        );
        sim.step();
        assert_eq!(
            (sim.value(a), sim.value(b)),
            (Bv::one_bit(), Bv::zero_bit())
        );
    }

    #[test]
    fn assignment_truncates_to_lhs_width() {
        let m = parse_verilog(
            "module m(input [3:0] a, output [1:0] y);
               assign y = a + 4'd1;
             endmodule",
        )
        .unwrap();
        let mut sim = Simulator::new(&m).unwrap();
        let a = m.require("a").unwrap();
        let y = m.require("y").unwrap();
        sim.set_input(a, Bv::new(0b0111, 4));
        sim.settle();
        assert_eq!(sim.value(y), Bv::new(0b00, 2), "8 truncates to 2 bits");
    }

    #[test]
    fn observer_sees_branches_and_stmts() {
        #[derive(Default)]
        struct Collect {
            stmts: Vec<u32>,
            branches: Vec<(u32, BranchOutcome)>,
        }
        impl SimObserver for Collect {
            fn on_stmt(&mut self, s: StmtId) {
                self.stmts.push(s.index() as u32);
            }
            fn on_branch(&mut self, s: StmtId, o: BranchOutcome) {
                self.branches.push((s.index() as u32, o));
            }
        }
        let m = parse_verilog(ARBITER2).unwrap();
        let mut sim = Simulator::new(&m).unwrap();
        let rst = m.require("rst").unwrap();
        let mut obs = Collect::default();
        sim.set_input(rst, Bv::one_bit());
        sim.step_observed(&mut obs);
        assert!(!obs.stmts.is_empty());
        assert_eq!(obs.branches.len(), 1);
        assert_eq!(obs.branches[0].1, BranchOutcome::Then);
        sim.set_input(rst, Bv::zero_bit());
        sim.step_observed(&mut obs);
        assert_eq!(obs.branches[1].1, BranchOutcome::Else);
    }

    #[test]
    fn reset_to_initial_restores_declared_inits() {
        let m = parse_verilog(
            "module m(input clk, input rst, input d, output reg [3:0] q);
               always @(posedge clk)
                 if (rst) q <= 4'd5;
                 else q <= q + 4'd1;
             endmodule",
        )
        .unwrap();
        let mut sim = Simulator::new(&m).unwrap();
        let q = m.require("q").unwrap();
        assert_eq!(sim.value(q), Bv::new(5, 4), "parser extracted reset init");
        sim.step();
        sim.step();
        assert_ne!(sim.value(q), Bv::new(5, 4));
        sim.reset_to_initial();
        assert_eq!(sim.value(q), Bv::new(5, 4));
        assert_eq!(sim.cycle(), 0);
    }

    #[test]
    fn case_default_fallthrough_observed() {
        let m = parse_verilog(
            "module m(input clk, input [1:0] s, output reg y);
               always @(posedge clk)
                 case (s)
                   2'b00: y <= 0;
                   2'b01: y <= 1;
                   default: y <= y;
                 endcase
             endmodule",
        )
        .unwrap();
        #[derive(Default)]
        struct Branches(Vec<BranchOutcome>);
        impl SimObserver for Branches {
            fn on_branch(&mut self, _s: StmtId, o: BranchOutcome) {
                self.0.push(o);
            }
        }
        let mut sim = Simulator::new(&m).unwrap();
        let s = m.require("s").unwrap();
        let mut obs = Branches::default();
        for v in [0u64, 1, 3] {
            sim.set_input(s, Bv::new(v, 2));
            sim.step_observed(&mut obs);
        }
        assert_eq!(
            obs.0,
            vec![
                BranchOutcome::Arm(0),
                BranchOutcome::Arm(1),
                BranchOutcome::Default
            ]
        );
    }
}
