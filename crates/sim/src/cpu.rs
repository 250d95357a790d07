//! The single-issue in-order functional core.
//!
//! Instructions are decoded once at load time. [`Cpu::step`] executes one
//! instruction and streams its fetched `(pc, word)` pair to a
//! [`FetchSink`] — the hook the bus monitors and the encoded-image
//! evaluator hang off. [`Cpu::run_with_sink`] executes whole straight-line
//! runs: it checks the PC once per run and hands each run to the sink in
//! one [`FetchSink::on_run`] call. A per-instruction execution counter is
//! maintained for hot-loop profiling (`imt-cfg` consumes it).

use imt_isa::decode::decode;
use imt_isa::inst::Inst;
use imt_isa::program::{Program, STACK_TOP};
use imt_isa::reg::{FReg, Reg};

use crate::error::SimError;
use crate::mem::Memory;

/// Receives every instruction fetch, in program order.
///
/// Implementations must be cheap: the hook sits on the simulator's hot
/// path. See [`crate::bus::DataBusMonitor`] for the canonical consumer and
/// [`Tee`] for fan-out to two sinks.
///
/// The core delivers fetches in straight-line runs through
/// [`on_run`](FetchSink::on_run); [`Cpu::step`] delivers one fetch through
/// [`on_fetch`](FetchSink::on_fetch). A sink that only implements
/// `on_fetch` sees the same per-fetch sequence either way. A sink that
/// overrides `on_run` must end in the state its `on_fetch` calls in order
/// would leave: the edge recorder, the bus monitors and `imt-core`'s two
/// full-simulation evaluation sinks do, each pinned to its per-fetch path
/// by a test.
pub trait FetchSink {
    /// Called once per executed instruction with its address and the
    /// machine word delivered over the instruction bus.
    fn on_fetch(&mut self, pc: u32, word: u32);

    /// Called once per straight-line run, after the run has executed:
    /// `words[i]` was fetched from `pc + 4*i`.
    ///
    /// A run ends at a control transfer, a `syscall` or `break`, or the
    /// last text word. A run that stops on a fault includes the faulting
    /// fetch; a run cut off by the step limit includes exactly the
    /// fetches the limit allowed. The default feeds each fetch to
    /// [`on_fetch`](FetchSink::on_fetch) in order.
    #[inline]
    fn on_run(&mut self, pc: u32, words: &[u32]) {
        let mut pc = pc;
        for &word in words {
            self.on_fetch(pc, word);
            pc = pc.wrapping_add(4);
        }
    }
}

/// A sink that discards fetches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl FetchSink for NullSink {
    #[inline]
    fn on_fetch(&mut self, _pc: u32, _word: u32) {}
}

/// Fans fetches out to two sinks (compose for more).
///
/// A run goes to the first sink whole, then to the second, so each sink
/// sees its own fetches in program order.
///
/// ```
/// use imt_sim::bus::DataBusMonitor;
/// use imt_sim::cpu::Tee;
///
/// let mut a = DataBusMonitor::new(32);
/// let mut b = DataBusMonitor::new(32);
/// let tee = Tee(&mut a, &mut b);
/// # let _ = tee;
/// ```
#[derive(Debug)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: FetchSink, B: FetchSink> FetchSink for Tee<A, B> {
    #[inline]
    fn on_fetch(&mut self, pc: u32, word: u32) {
        self.0.on_fetch(pc, word);
        self.1.on_fetch(pc, word);
    }

    #[inline]
    fn on_run(&mut self, pc: u32, words: &[u32]) {
        self.0.on_run(pc, words);
        self.1.on_run(pc, words);
    }
}

impl<S: FetchSink + ?Sized> FetchSink for &mut S {
    #[inline]
    fn on_fetch(&mut self, pc: u32, word: u32) {
        (**self).on_fetch(pc, word);
    }

    #[inline]
    fn on_run(&mut self, pc: u32, words: &[u32]) {
        (**self).on_run(pc, words);
    }
}

/// Outcome of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Exit code passed to the `exit`/`exit2` syscall.
    pub exit_code: i32,
    /// Instructions executed (equals fetches and, for this single-issue
    /// model, cycles).
    pub instructions: u64,
}

/// Result of a single [`Cpu::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// The instruction completed; execution continues.
    Continue,
    /// An `exit` syscall was executed with this code.
    Exited(i32),
}

/// The simulated processor.
///
/// See the [crate-level example](crate) for typical use.
pub struct Cpu {
    regs: [u32; 32],
    fpr: [u32; 32],
    hi: u32,
    lo: u32,
    fcc: bool,
    pc: u32,
    text: Vec<Inst>,
    words: Vec<u32>,
    /// `run_end[i]`: the last index of the straight-line run entered at
    /// `i` — the first index `>= i` that ends a run, or the last text word.
    run_end: Vec<u32>,
    text_base: u32,
    mem: Memory,
    profile: Vec<u64>,
    /// Difference array of the runs executed since the last fold into
    /// `profile` (+1 at a run's first index, −1 after its last, wrapping);
    /// one entry longer than the text. All zero outside `run_with_sink`.
    pending_runs: Vec<u64>,
    instructions: u64,
    stdout: String,
}

impl std::fmt::Debug for Cpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cpu")
            .field("pc", &format_args!("{:#010x}", self.pc))
            .field("instructions", &self.instructions)
            .finish()
    }
}

impl Cpu {
    /// Loads a program: decodes its text, copies its data segment, points
    /// the PC at the entry label and the stack pointer at the top of the
    /// stack region.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidInstruction`] if a text word does not decode;
    /// [`SimError::AccessOutOfRange`] if the data segment does not fit in
    /// user space.
    pub fn new(program: &Program) -> Result<Self, SimError> {
        let mut text = Vec::with_capacity(program.text.len());
        for (i, &word) in program.text.iter().enumerate() {
            let inst = decode(word).map_err(|_| SimError::InvalidInstruction {
                pc: program.address_of_index(i),
                word,
            })?;
            text.push(inst);
        }
        let mut run_end = vec![0u32; text.len()];
        let mut end = text.len().saturating_sub(1) as u32;
        for (i, inst) in text.iter().enumerate().rev() {
            if inst.is_control_flow() || matches!(inst, Inst::Syscall | Inst::Break) {
                end = i as u32;
            }
            run_end[i] = end;
        }
        let mut mem = Memory::new();
        mem.write_bytes(program.data_base, &program.data)?;
        let mut regs = [0u32; 32];
        regs[Reg::SP.number() as usize] = STACK_TOP;
        regs[Reg::GP.number() as usize] = program.data_base.wrapping_add(0x8000);
        Ok(Cpu {
            regs,
            fpr: [0; 32],
            hi: 0,
            lo: 0,
            fcc: false,
            pc: program.entry,
            profile: vec![0; text.len()],
            pending_runs: vec![0; text.len() + 1],
            words: program.text.clone(),
            run_end,
            text,
            text_base: program.text_base,
            mem,
            instructions: 0,
            stdout: String::new(),
        })
    }

    /// The current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Reads an integer register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.number() as usize]
    }

    /// Writes an integer register (writes to `$zero` are ignored).
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        if r != Reg::ZERO {
            self.regs[r.number() as usize] = value;
        }
    }

    /// Reads the double in the even/odd pair anchored at `r`.
    pub fn freg_d(&self, r: FReg) -> f64 {
        let even = (r.number() & !1) as usize;
        let bits = (self.fpr[even + 1] as u64) << 32 | self.fpr[even] as u64;
        f64::from_bits(bits)
    }

    /// Writes the double in the even/odd pair anchored at `r`.
    pub fn set_freg_d(&mut self, r: FReg, value: f64) {
        let even = (r.number() & !1) as usize;
        let bits = value.to_bits();
        self.fpr[even] = bits as u32;
        self.fpr[even + 1] = (bits >> 32) as u32;
    }

    /// Everything the program printed through syscalls so far.
    pub fn stdout(&self) -> &str {
        &self.stdout
    }

    /// Instructions executed so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Per-instruction execution counts, indexed like `Program::text`.
    ///
    /// This is the profile `imt-cfg` aggregates into basic-block weights
    /// for hot-loop selection.
    pub fn profile(&self) -> &[u64] {
        &self.profile
    }

    /// The data memory (e.g. for checking results after a run).
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable access to data memory (e.g. to pre-seed inputs).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Runs until exit, discarding fetch events.
    ///
    /// # Errors
    ///
    /// Any [`SimError`] raised by execution, including
    /// [`SimError::MaxStepsExceeded`] if the program does not exit within
    /// `max_steps`.
    pub fn run(&mut self, max_steps: u64) -> Result<RunSummary, SimError> {
        self.run_with_sink(max_steps, &mut NullSink)
    }

    /// Runs until exit, streaming every fetch to `sink` one straight-line
    /// run at a time ([`FetchSink::on_run`]).
    ///
    /// The PC is checked once per run and each run is clipped to the
    /// remaining step budget, so fetches, errors, [`Cpu::profile`],
    /// [`Cpu::instructions`], [`Cpu::pc`] and output all equal those of a
    /// [`Cpu::step`] loop with the same budget.
    ///
    /// # Errors
    ///
    /// As [`Cpu::run`].
    pub fn run_with_sink<S: FetchSink>(
        &mut self,
        max_steps: u64,
        sink: &mut S,
    ) -> Result<RunSummary, SimError> {
        let start = self.instructions;
        let result = self.run_runs(max_steps, sink);
        self.fold_pending_runs();
        // One gated check per call (not per step): fetches equal executed
        // instructions on this single-issue core, on every exit path.
        if imt_obs::enabled() {
            imt_obs::counter!("sim.runs").inc();
            imt_obs::counter!("sim.fetches").add(self.instructions - start);
        }
        result
    }

    /// The loop behind [`Cpu::run_with_sink`]; leaves the per-instruction
    /// counts of the runs it executed in `pending_runs`.
    fn run_runs<S: FetchSink>(
        &mut self,
        max_steps: u64,
        sink: &mut S,
    ) -> Result<RunSummary, SimError> {
        let mut budget = max_steps;
        loop {
            if budget == 0 {
                return Err(SimError::MaxStepsExceeded { limit: max_steps });
            }
            let pc = self.pc;
            let first = self.text_index(pc)?;
            let run_len = (self.run_end[first] as usize - first + 1) as u64;
            let last = first + (run_len.min(budget) - 1) as usize;
            let (mut index, mut at) = (first, pc);
            let event = loop {
                match self.exec(at, self.text[index]) {
                    Ok(StepEvent::Continue) if index != last => {
                        index += 1;
                        at = at.wrapping_add(4);
                    }
                    event => break event,
                }
            };
            let fetched = index - first + 1;
            self.pending_runs[first] = self.pending_runs[first].wrapping_add(1);
            self.pending_runs[index + 1] = self.pending_runs[index + 1].wrapping_sub(1);
            self.instructions += fetched as u64;
            budget -= fetched as u64;
            sink.on_run(pc, &self.words[first..=index]);
            if let StepEvent::Exited(code) = event? {
                return Ok(RunSummary {
                    exit_code: code,
                    instructions: self.instructions,
                });
            }
        }
    }

    /// Prefix-sums `pending_runs` into `profile` and clears it.
    fn fold_pending_runs(&mut self) {
        let mut running = 0u64;
        for (count, delta) in self.profile.iter_mut().zip(&mut self.pending_runs) {
            running = running.wrapping_add(std::mem::take(delta));
            *count += running;
        }
        if let Some(past_end) = self.pending_runs.last_mut() {
            *past_end = 0;
        }
    }

    /// The text index of `pc`.
    fn text_index(&self, pc: u32) -> Result<usize, SimError> {
        if pc >= self.text_base && pc.is_multiple_of(4) {
            let i = ((pc - self.text_base) / 4) as usize;
            if i < self.text.len() {
                return Ok(i);
            }
        }
        Err(SimError::PcOutOfText { pc })
    }

    /// Executes one instruction.
    ///
    /// This is the per-fetch reference for [`Cpu::run_with_sink`]: it
    /// reports the fetch through [`FetchSink::on_fetch`] before executing
    /// it and bumps [`Cpu::profile`] directly.
    ///
    /// # Errors
    ///
    /// [`SimError::PcOutOfText`] if the PC is outside the text segment, or
    /// any data-access or syscall error.
    pub fn step<S: FetchSink>(&mut self, sink: &mut S) -> Result<StepEvent, SimError> {
        let pc = self.pc;
        let index = self.text_index(pc)?;
        sink.on_fetch(pc, self.words[index]);
        self.profile[index] += 1;
        self.instructions += 1;
        self.exec(pc, self.text[index])
    }

    /// Executes `inst`, fetched from `pc`: the one definition of
    /// instruction semantics, shared by [`Cpu::step`] and the run loop.
    /// Sets the PC to the next instruction unless execution faults.
    ///
    /// Always inlined: the run loop relies on it to keep a run's
    /// instructions free of call overhead.
    #[inline(always)]
    #[allow(clippy::too_many_lines)] // one arm per opcode
    fn exec(&mut self, pc: u32, inst: Inst) -> Result<StepEvent, SimError> {
        let mut next = pc.wrapping_add(4);

        use Inst::*;
        match inst {
            Add { rd, rs, rt } => {
                let v = self.reg(rs).wrapping_add(self.reg(rt));
                self.set_reg(rd, v);
            }
            Addu { rd, rs, rt } => {
                let v = self.reg(rs).wrapping_add(self.reg(rt));
                self.set_reg(rd, v);
            }
            Sub { rd, rs, rt } => {
                let v = self.reg(rs).wrapping_sub(self.reg(rt));
                self.set_reg(rd, v);
            }
            Subu { rd, rs, rt } => {
                let v = self.reg(rs).wrapping_sub(self.reg(rt));
                self.set_reg(rd, v);
            }
            And { rd, rs, rt } => {
                let v = self.reg(rs) & self.reg(rt);
                self.set_reg(rd, v);
            }
            Or { rd, rs, rt } => {
                let v = self.reg(rs) | self.reg(rt);
                self.set_reg(rd, v);
            }
            Xor { rd, rs, rt } => {
                let v = self.reg(rs) ^ self.reg(rt);
                self.set_reg(rd, v);
            }
            Nor { rd, rs, rt } => {
                let v = !(self.reg(rs) | self.reg(rt));
                self.set_reg(rd, v);
            }
            Slt { rd, rs, rt } => {
                let v = ((self.reg(rs) as i32) < self.reg(rt) as i32) as u32;
                self.set_reg(rd, v);
            }
            Sltu { rd, rs, rt } => {
                let v = (self.reg(rs) < self.reg(rt)) as u32;
                self.set_reg(rd, v);
            }
            Mul { rd, rs, rt } => {
                let v = self.reg(rs).wrapping_mul(self.reg(rt));
                self.set_reg(rd, v);
            }
            Sll { rd, rt, shamt } => {
                let v = self.reg(rt) << shamt;
                self.set_reg(rd, v);
            }
            Srl { rd, rt, shamt } => {
                let v = self.reg(rt) >> shamt;
                self.set_reg(rd, v);
            }
            Sra { rd, rt, shamt } => {
                let v = (self.reg(rt) as i32 >> shamt) as u32;
                self.set_reg(rd, v);
            }
            Sllv { rd, rt, rs } => {
                let v = self.reg(rt) << (self.reg(rs) & 31);
                self.set_reg(rd, v);
            }
            Srlv { rd, rt, rs } => {
                let v = self.reg(rt) >> (self.reg(rs) & 31);
                self.set_reg(rd, v);
            }
            Srav { rd, rt, rs } => {
                let v = (self.reg(rt) as i32 >> (self.reg(rs) & 31)) as u32;
                self.set_reg(rd, v);
            }
            Mult { rs, rt } => {
                let p = (self.reg(rs) as i32 as i64) * (self.reg(rt) as i32 as i64);
                self.lo = p as u32;
                self.hi = (p >> 32) as u32;
            }
            Multu { rs, rt } => {
                let p = (self.reg(rs) as u64) * (self.reg(rt) as u64);
                self.lo = p as u32;
                self.hi = (p >> 32) as u32;
            }
            Div { rs, rt } => {
                let (a, b) = (self.reg(rs) as i32, self.reg(rt) as i32);
                if b == 0 {
                    // MIPS leaves HI/LO unpredictable; we define them as 0.
                    self.lo = 0;
                    self.hi = 0;
                } else {
                    self.lo = a.wrapping_div(b) as u32;
                    self.hi = a.wrapping_rem(b) as u32;
                }
            }
            Divu { rs, rt } => {
                let (a, b) = (self.reg(rs), self.reg(rt));
                self.lo = a.checked_div(b).unwrap_or(0);
                self.hi = a.checked_rem(b).unwrap_or(0);
            }
            Mfhi { rd } => {
                let v = self.hi;
                self.set_reg(rd, v);
            }
            Mflo { rd } => {
                let v = self.lo;
                self.set_reg(rd, v);
            }
            Mthi { rs } => self.hi = self.reg(rs),
            Mtlo { rs } => self.lo = self.reg(rs),
            Addi { rt, rs, imm } | Addiu { rt, rs, imm } => {
                let v = self.reg(rs).wrapping_add(imm as i32 as u32);
                self.set_reg(rt, v);
            }
            Slti { rt, rs, imm } => {
                let v = ((self.reg(rs) as i32) < imm as i32) as u32;
                self.set_reg(rt, v);
            }
            Sltiu { rt, rs, imm } => {
                let v = (self.reg(rs) < imm as i32 as u32) as u32;
                self.set_reg(rt, v);
            }
            Andi { rt, rs, imm } => {
                let v = self.reg(rs) & imm as u32;
                self.set_reg(rt, v);
            }
            Ori { rt, rs, imm } => {
                let v = self.reg(rs) | imm as u32;
                self.set_reg(rt, v);
            }
            Xori { rt, rs, imm } => {
                let v = self.reg(rs) ^ imm as u32;
                self.set_reg(rt, v);
            }
            Lui { rt, imm } => self.set_reg(rt, (imm as u32) << 16),
            Beq { rs, rt, offset } => {
                if self.reg(rs) == self.reg(rt) {
                    next = branch_target(pc, offset);
                }
            }
            Bne { rs, rt, offset } => {
                if self.reg(rs) != self.reg(rt) {
                    next = branch_target(pc, offset);
                }
            }
            Blez { rs, offset } => {
                if self.reg(rs) as i32 <= 0 {
                    next = branch_target(pc, offset);
                }
            }
            Bgtz { rs, offset } => {
                if self.reg(rs) as i32 > 0 {
                    next = branch_target(pc, offset);
                }
            }
            Bltz { rs, offset } => {
                if (self.reg(rs) as i32) < 0 {
                    next = branch_target(pc, offset);
                }
            }
            Bgez { rs, offset } => {
                if self.reg(rs) as i32 >= 0 {
                    next = branch_target(pc, offset);
                }
            }
            J { target } => next = (pc.wrapping_add(4) & 0xF000_0000) | target << 2,
            Jal { target } => {
                self.set_reg(Reg::RA, pc.wrapping_add(4));
                next = (pc.wrapping_add(4) & 0xF000_0000) | target << 2;
            }
            Jr { rs } => next = self.reg(rs),
            Jalr { rd, rs } => {
                let target = self.reg(rs);
                self.set_reg(rd, pc.wrapping_add(4));
                next = target;
            }
            Lb { rt, base, offset } => {
                let v = self.mem.read_u8(ea(self.reg(base), offset))? as i8 as i32 as u32;
                self.set_reg(rt, v);
            }
            Lbu { rt, base, offset } => {
                let v = self.mem.read_u8(ea(self.reg(base), offset))? as u32;
                self.set_reg(rt, v);
            }
            Lh { rt, base, offset } => {
                let v = self.mem.read_u16(ea(self.reg(base), offset))? as i16 as i32 as u32;
                self.set_reg(rt, v);
            }
            Lhu { rt, base, offset } => {
                let v = self.mem.read_u16(ea(self.reg(base), offset))? as u32;
                self.set_reg(rt, v);
            }
            Lw { rt, base, offset } => {
                let v = self.mem.read_u32(ea(self.reg(base), offset))?;
                self.set_reg(rt, v);
            }
            Sb { rt, base, offset } => {
                self.mem
                    .write_u8(ea(self.reg(base), offset), self.reg(rt) as u8)?;
            }
            Sh { rt, base, offset } => {
                self.mem
                    .write_u16(ea(self.reg(base), offset), self.reg(rt) as u16)?;
            }
            Sw { rt, base, offset } => {
                self.mem
                    .write_u32(ea(self.reg(base), offset), self.reg(rt))?;
            }
            Lwc1 { ft, base, offset } => {
                let v = self.mem.read_u32(ea(self.reg(base), offset))?;
                self.fpr[ft.number() as usize] = v;
            }
            Swc1 { ft, base, offset } => {
                self.mem
                    .write_u32(ea(self.reg(base), offset), self.fpr[ft.number() as usize])?;
            }
            Ldc1 { ft, base, offset } => {
                let v = self.mem.read_u64(ea(self.reg(base), offset))?;
                let even = (ft.number() & !1) as usize;
                self.fpr[even] = v as u32;
                self.fpr[even + 1] = (v >> 32) as u32;
            }
            Sdc1 { ft, base, offset } => {
                let even = (ft.number() & !1) as usize;
                let v = (self.fpr[even + 1] as u64) << 32 | self.fpr[even] as u64;
                self.mem.write_u64(ea(self.reg(base), offset), v)?;
            }
            AddD { fd, fs, ft } => {
                let v = self.freg_d(fs) + self.freg_d(ft);
                self.set_freg_d(fd, v);
            }
            SubD { fd, fs, ft } => {
                let v = self.freg_d(fs) - self.freg_d(ft);
                self.set_freg_d(fd, v);
            }
            MulD { fd, fs, ft } => {
                let v = self.freg_d(fs) * self.freg_d(ft);
                self.set_freg_d(fd, v);
            }
            DivD { fd, fs, ft } => {
                let v = self.freg_d(fs) / self.freg_d(ft);
                self.set_freg_d(fd, v);
            }
            SqrtD { fd, fs } => {
                let v = self.freg_d(fs).sqrt();
                self.set_freg_d(fd, v);
            }
            AbsD { fd, fs } => {
                let v = self.freg_d(fs).abs();
                self.set_freg_d(fd, v);
            }
            MovD { fd, fs } => {
                let v = self.freg_d(fs);
                self.set_freg_d(fd, v);
            }
            NegD { fd, fs } => {
                let v = -self.freg_d(fs);
                self.set_freg_d(fd, v);
            }
            CvtDW { fd, fs } => {
                let int = self.fpr[fs.number() as usize] as i32;
                self.set_freg_d(fd, int as f64);
            }
            CvtWD { fd, fs } => {
                let v = self.freg_d(fs);
                // Truncate toward zero, saturating like MIPS trunc.w.d.
                let int = if v.is_nan() {
                    0
                } else {
                    v.trunc().clamp(i32::MIN as f64, i32::MAX as f64) as i32
                };
                self.fpr[fd.number() as usize] = int as u32;
            }
            CEqD { fs, ft } => self.fcc = self.freg_d(fs) == self.freg_d(ft),
            CLtD { fs, ft } => self.fcc = self.freg_d(fs) < self.freg_d(ft),
            CLeD { fs, ft } => self.fcc = self.freg_d(fs) <= self.freg_d(ft),
            Bc1t { offset } => {
                if self.fcc {
                    next = branch_target(pc, offset);
                }
            }
            Bc1f { offset } => {
                if !self.fcc {
                    next = branch_target(pc, offset);
                }
            }
            Mfc1 { rt, fs } => {
                let v = self.fpr[fs.number() as usize];
                self.set_reg(rt, v);
            }
            Mtc1 { rt, fs } => self.fpr[fs.number() as usize] = self.reg(rt),
            Syscall => {
                if let Some(code) = self.syscall()? {
                    self.pc = next;
                    return Ok(StepEvent::Exited(code));
                }
            }
            Break => return Err(SimError::PcOutOfText { pc }),
        }

        self.pc = next;
        Ok(StepEvent::Continue)
    }

    /// SPIM-compatible syscall subset. Returns `Some(code)` on exit.
    fn syscall(&mut self) -> Result<Option<i32>, SimError> {
        use std::fmt::Write;
        let number = self.reg(Reg::V0);
        match number {
            1 => {
                let v = self.reg(Reg::A0) as i32;
                write!(self.stdout, "{v}").expect("write to String cannot fail");
            }
            3 => {
                let v = self.freg_d(FReg::F12);
                write!(self.stdout, "{v:.6}").expect("write to String cannot fail");
            }
            4 => {
                let s = self.mem.read_cstring(self.reg(Reg::A0))?;
                self.stdout.push_str(&s);
            }
            10 => return Ok(Some(0)),
            11 => {
                let ch = (self.reg(Reg::A0) & 0xFF) as u8 as char;
                self.stdout.push(ch);
            }
            17 => return Ok(Some(self.reg(Reg::A0) as i32)),
            _ => return Err(SimError::UnknownSyscall { number }),
        }
        Ok(None)
    }
}

#[inline]
fn branch_target(pc: u32, offset: i16) -> u32 {
    pc.wrapping_add(4).wrapping_add((offset as i32 as u32) << 2)
}

#[inline]
fn ea(base: u32, offset: i16) -> u32 {
    base.wrapping_add(offset as i32 as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use imt_isa::asm::assemble;

    fn run(source: &str) -> (Cpu, RunSummary) {
        let program = assemble(source).expect("assembly failed");
        let mut cpu = Cpu::new(&program).expect("load failed");
        let summary = cpu.run(10_000_000).expect("run failed");
        (cpu, summary)
    }

    #[test]
    fn arithmetic_and_exit() {
        let (cpu, summary) = run(r#"
            .text
    main:   li $t0, 6
            li $t1, 7
            mul $t2, $t0, $t1
            move $a0, $t2
            li $v0, 1
            syscall
            li $v0, 10
            syscall
    "#);
        assert_eq!(cpu.stdout(), "42");
        assert_eq!(summary.exit_code, 0);
    }

    #[test]
    fn loops_and_profile() {
        let (cpu, _) = run(r#"
            .text
    main:   li $t0, 5
    loop:   addiu $t0, $t0, -1
            bgtz $t0, loop
            li $v0, 10
            syscall
    "#);
        // The loop body (2 instructions) executes 5 times.
        assert_eq!(cpu.profile()[1], 5);
        assert_eq!(cpu.profile()[2], 5);
        assert_eq!(cpu.profile()[0], 1);
    }

    #[test]
    fn memory_and_strings() {
        let (cpu, _) = run(r#"
            .data
    msg:    .asciiz "x="
            .align 2
    buf:    .space 4
            .text
    main:   li $v0, 4
            la $a0, msg
            syscall
            la $t0, buf
            li $t1, 123
            sw $t1, 0($t0)
            lw $a0, 0($t0)
            li $v0, 1
            syscall
            li $v0, 10
            syscall
    "#);
        assert_eq!(cpu.stdout(), "x=123");
    }

    #[test]
    fn double_precision_flow() {
        let (cpu, _) = run(r#"
            .data
    a:      .double 1.5
    b:      .double 2.25
            .text
    main:   la   $t0, a
            l.d  $f2, 0($t0)
            l.d  $f4, 8($t0)
            mul.d $f12, $f2, $f4
            li   $v0, 3
            syscall
            li $v0, 10
            syscall
    "#);
        assert_eq!(cpu.stdout(), "3.375000");
    }

    #[test]
    fn fp_compare_and_branch() {
        let (cpu, _) = run(r#"
            .data
    a:      .double 1.0
    b:      .double 2.0
            .text
    main:   la   $t0, a
            l.d  $f2, 0($t0)
            l.d  $f4, 8($t0)
            c.lt.d $f2, $f4
            bc1t yes
            li $a0, 0
            b out
    yes:    li $a0, 1
    out:    li $v0, 1
            syscall
            li $v0, 10
            syscall
    "#);
        assert_eq!(cpu.stdout(), "1");
    }

    #[test]
    fn int_double_conversions() {
        let (cpu, _) = run(r#"
            .text
    main:   li   $t0, 9
            mtc1 $t0, $f0
            cvt.d.w $f2, $f0
            sqrt.d $f12, $f2
            li $v0, 3
            syscall
            cvt.w.d $f6, $f12
            mfc1 $a0, $f6
            li $v0, 1
            syscall
            li $v0, 10
            syscall
    "#);
        assert_eq!(cpu.stdout(), "3.0000003");
    }

    #[test]
    fn functions_and_stack() {
        let (cpu, _) = run(r#"
            .text
    main:   li   $a0, 10
            jal  fact
            move $a0, $v0
            li   $v0, 1
            syscall
            li   $v0, 10
            syscall
    fact:   li   $v0, 1
    floop:  blez $a0, fdone
            mul  $v0, $v0, $a0
            addiu $a0, $a0, -1
            b    floop
    fdone:  jr   $ra
    "#);
        assert_eq!(cpu.stdout(), "3628800");
    }

    #[test]
    fn division_semantics() {
        let (cpu, _) = run(r#"
            .text
    main:   li $t0, -7
            li $t1, 2
            div $t2, $t0, $t1
            rem $t3, $t0, $t1
            move $a0, $t2
            li $v0, 1
            syscall
            li $v0, 11
            li $a0, 32
            syscall
            move $a0, $t3
            li $v0, 1
            syscall
            li $v0, 10
            syscall
    "#);
        // C-style truncating division: -7 / 2 = -3 rem -1.
        assert_eq!(cpu.stdout(), "-3 -1");
    }

    #[test]
    fn zero_register_is_immutable() {
        let (cpu, _) = run(r#"
            .text
    main:   addiu $zero, $zero, 55
            move  $a0, $zero
            li $v0, 1
            syscall
            li $v0, 10
            syscall
    "#);
        assert_eq!(cpu.stdout(), "0");
    }

    #[test]
    fn fetch_sink_sees_every_instruction_in_order() {
        struct Recorder(Vec<u32>);
        impl FetchSink for Recorder {
            fn on_fetch(&mut self, pc: u32, _word: u32) {
                self.0.push(pc);
            }
        }
        let program = assemble(
            r#"
            .text
    main:   li $t0, 2
    loop:   addiu $t0, $t0, -1
            bgtz $t0, loop
            li $v0, 10
            syscall
    "#,
        )
        .unwrap();
        let mut cpu = Cpu::new(&program).unwrap();
        let mut rec = Recorder(Vec::new());
        cpu.run_with_sink(1000, &mut rec).unwrap();
        let base = program.text_base;
        assert_eq!(
            rec.0,
            vec![
                base,
                base + 4,
                base + 8,
                base + 4,
                base + 8,
                base + 12,
                base + 16
            ]
        );
    }

    #[test]
    fn runaway_program_hits_step_limit() {
        let program = assemble(".text\nmain: b main\n").unwrap();
        let mut cpu = Cpu::new(&program).unwrap();
        assert_eq!(cpu.run(100), Err(SimError::MaxStepsExceeded { limit: 100 }));
    }

    #[test]
    fn jumping_into_the_void_is_an_error() {
        let program = assemble(".text\nmain: jr $t0\n").unwrap();
        let mut cpu = Cpu::new(&program).unwrap();
        let mut sink = NullSink;
        cpu.step(&mut sink).unwrap();
        assert_eq!(cpu.step(&mut sink), Err(SimError::PcOutOfText { pc: 0 }));
    }

    #[test]
    fn unknown_syscall_is_an_error() {
        let program = assemble(".text\nmain: li $v0, 99\nsyscall\n").unwrap();
        let mut cpu = Cpu::new(&program).unwrap();
        assert_eq!(cpu.run(10), Err(SimError::UnknownSyscall { number: 99 }));
    }

    #[test]
    fn subword_memory_semantics() {
        let (cpu, _) = run(r#"
            .data
            .align 2
    buf:    .space 8
            .text
    main:   la   $t0, buf
            li   $t1, -2          # 0xFFFFFFFE
            sb   $t1, 0($t0)      # stores 0xFE
            sh   $t1, 2($t0)      # stores 0xFFFE
            lb   $t2, 0($t0)      # sign-extends: -2
            lbu  $t3, 0($t0)      # zero-extends: 254
            lh   $t4, 2($t0)      # sign-extends: -2
            lhu  $t5, 2($t0)      # zero-extends: 65534
            move $a0, $t2
            li $v0, 1
            syscall
            li $v0, 11
            li $a0, 32
            syscall
            move $a0, $t3
            li $v0, 1
            syscall
            li $v0, 11
            li $a0, 32
            syscall
            move $a0, $t4
            li $v0, 1
            syscall
            li $v0, 11
            li $a0, 32
            syscall
            move $a0, $t5
            li $v0, 1
            syscall
            li $v0, 10
            syscall
    "#);
        assert_eq!(cpu.stdout(), "-2 254 -2 65534");
    }

    #[test]
    fn shift_and_compare_edge_semantics() {
        let (cpu, _) = run(r#"
            .text
    main:   li   $t0, -8
            sra  $t1, $t0, 1      # arithmetic: -4
            srl  $t2, $t0, 28     # logical: 0xF
            sltiu $t3, $zero, -1  # 0 < 0xFFFFFFFF unsigned: 1
            slti  $t4, $zero, -1  # 0 < -1 signed: 0
            move $a0, $t1
            li $v0, 1
            syscall
            li $v0, 11
            li $a0, 32
            syscall
            move $a0, $t2
            li $v0, 1
            syscall
            li $v0, 11
            li $a0, 32
            syscall
            addu $a0, $t3, $t4
            li $v0, 1
            syscall
            li $v0, 10
            syscall
    "#);
        assert_eq!(cpu.stdout(), "-4 15 1");
    }

    #[test]
    fn exit2_returns_its_code() {
        let (_, summary) = run(".text\nmain: li $a0, 7\nli $v0, 17\nsyscall\n");
        assert_eq!(summary.exit_code, 7);
    }
}
