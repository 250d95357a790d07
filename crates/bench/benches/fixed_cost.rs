//! Asserting bench: fixed costs scale with the bytes used, not with the
//! capacity reserved.
//!
//! Three costs are paid per simulated program or per served frame,
//! whatever the work around them:
//!
//! * **Loading a program.** `Cpu::new` + drop, against the same kernel's
//!   bare run with its load included. A page table sized for the whole
//!   address space made this half of a paper-scale fft run.
//! * **Checksumming a payload.** `wire::crc32` on a 668-byte payload (a
//!   completed response's size), against the byte-at-a-time
//!   `wire::crc32_bytewise` on the same bytes.
//! * **Decoding a request.** One reactor wake's worth of `FrameDecoder`
//!   work on an encoded request frame: read the frame, drain it, read
//!   again to `WouldBlock`; against `Frame::from_bytes` of the same frame.
//!   A read window zeroed on every read made this 27x the parse.
//!
//! Each pair is timed interleaved, best of `ROUNDS`, so the host's slow
//! phases hit both sides; the bench **fails** (exit 1) if any kernel's
//! load exceeds `LOAD_CEILING` of its run, the CRC exceeds `CRC_CEILING`
//! of the oracle, or the decoder round exceeds `DECODE_CEILING` times the
//! parse. It also prints each kernel's run with the load excluded, the
//! per-access cost a memory layout change must not raise.
//!
//! Plain `harness = false` main so `cargo bench --bench fixed_cost` runs
//! it as a CI gate without criterion's sampling machinery.

use std::hint::black_box;
use std::io::{self, Read};
use std::time::{Duration, Instant};

use imt_isa::program::Program;
use imt_kernels::Kernel;
use imt_net::msg::NetRequest;
use imt_net::wire::{crc32, crc32_bytewise, Frame, FrameDecoder, FrameKind};
use imt_sim::cpu::{Cpu, NullSink};

const ROUNDS: usize = 9;
const LOAD_CEILING: f64 = 0.1;
const CRC_CEILING: f64 = 0.5;
const DECODE_CEILING: f64 = 4.0;
/// Loads per load sample, so a fast load still times well above the
/// clock's resolution.
const LOADS: u32 = 8;
/// Calls per CRC or decoder sample.
const CALLS: u32 = 2000;
/// A completed response's payload size.
const PAYLOAD_BYTES: usize = 668;

fn per_call(total: Duration, calls: u32) -> Duration {
    total / calls
}

fn time_load(program: &Program) -> Duration {
    let start = Instant::now();
    for _ in 0..LOADS {
        drop(black_box(
            Cpu::new(black_box(program)).expect("kernel loads"),
        ));
    }
    per_call(start.elapsed(), LOADS)
}

/// The bare run with its load: `Cpu::new`, the run, and the drop.
fn time_run(program: &Program, max_steps: u64) -> Duration {
    let start = Instant::now();
    let mut cpu = Cpu::new(black_box(program)).expect("kernel loads");
    black_box(
        cpu.run_with_sink(max_steps, &mut NullSink)
            .expect("kernel runs"),
    );
    drop(cpu);
    start.elapsed()
}

/// The bare run alone: loaded before the clock starts, dropped after it
/// stops.
fn time_run_unloaded(program: &Program, max_steps: u64) -> Duration {
    let mut cpu = Cpu::new(black_box(program)).expect("kernel loads");
    let start = Instant::now();
    black_box(
        cpu.run_with_sink(max_steps, &mut NullSink)
            .expect("kernel runs"),
    );
    start.elapsed()
}

fn time_crc(payload: &[u8], crc: fn(&[u8]) -> u32) -> Duration {
    let start = Instant::now();
    for _ in 0..CALLS {
        black_box(crc(black_box(payload)));
    }
    per_call(start.elapsed(), CALLS)
}

/// A socket with one frame in it: the first read returns the frame, the
/// next one would block.
struct OneFrame<'a> {
    bytes: &'a [u8],
    sent: bool,
}

impl Read for OneFrame<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.sent {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        self.sent = true;
        buf[..self.bytes.len()].copy_from_slice(self.bytes);
        Ok(self.bytes.len())
    }
}

/// What the reactor does per readable wake: read until `WouldBlock`,
/// draining every complete frame.
fn decoder_round(decoder: &mut FrameDecoder, frame: &[u8]) -> usize {
    let mut socket = OneFrame {
        bytes: frame,
        sent: false,
    };
    let mut drained = 0;
    loop {
        while let Some(view) = decoder.next_frame().expect("well-formed frame") {
            drained += view.payload.len();
        }
        match decoder.fill_from(&mut socket) {
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return drained,
            Err(e) => panic!("read failed: {e}"),
        }
    }
}

fn time_decoder(decoder: &mut FrameDecoder, frame: &[u8]) -> Duration {
    let start = Instant::now();
    for _ in 0..CALLS {
        black_box(decoder_round(decoder, black_box(frame)));
    }
    per_call(start.elapsed(), CALLS)
}

fn time_parse(frame: &[u8]) -> Duration {
    let start = Instant::now();
    for _ in 0..CALLS {
        black_box(Frame::from_bytes(black_box(frame)).expect("well-formed frame"));
    }
    per_call(start.elapsed(), CALLS)
}

fn main() {
    // Tolerates and ignores cargo-bench plumbing args (`--bench`, filters).
    let _ = std::env::args();
    imt_obs::set_mode(imt_obs::Mode::Off);

    let kernels: Vec<_> = Kernel::ALL
        .iter()
        .map(|kernel| {
            let spec = kernel.paper_spec();
            let program = spec.assemble();
            let mut cpu = Cpu::new(&program).expect("kernel loads");
            cpu.run(spec.max_steps).expect("kernel runs");
            assert_eq!(cpu.stdout(), spec.expected_output, "{}", spec.name);
            (spec, program)
        })
        .collect();

    let payload: Vec<u8> = (0..PAYLOAD_BYTES as u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    assert_eq!(crc32(&payload), crc32_bytewise(&payload));
    let request = NetRequest::new("fft", false).with_block_size(4);
    let frame = Frame::new(FrameKind::Request, 1, request.encode())
        .expect("under cap")
        .to_bytes();
    let mut decoder = FrameDecoder::new();
    assert_eq!(
        decoder_round(&mut decoder, &frame),
        frame.len() - imt_net::wire::HEADER_BYTES
    );

    let mut loads = vec![(Duration::MAX, Duration::MAX, Duration::MAX); kernels.len()];
    let (mut fast_crc, mut slow_crc) = (Duration::MAX, Duration::MAX);
    let (mut round, mut parse) = (Duration::MAX, Duration::MAX);
    for _ in 0..ROUNDS {
        for ((spec, program), (load, run, unloaded)) in kernels.iter().zip(&mut loads) {
            *load = (*load).min(time_load(program));
            *run = (*run).min(time_run(program, spec.max_steps));
            *unloaded = (*unloaded).min(time_run_unloaded(program, spec.max_steps));
        }
        fast_crc = fast_crc.min(time_crc(&payload, crc32));
        slow_crc = slow_crc.min(time_crc(&payload, crc32_bytewise));
        round = round.min(time_decoder(&mut decoder, &frame));
        parse = parse.min(time_parse(&frame));
    }

    let mut failures = Vec::new();
    for ((spec, _), (load, run, unloaded)) in kernels.iter().zip(&loads) {
        let share = load.as_secs_f64() / run.as_secs_f64();
        println!(
            "fixed_cost: {:<12} load {:>8.1} us, run {:>9.1} us (load excluded {:>9.1} us), load/run {share:.3} (ceiling {LOAD_CEILING})",
            spec.name,
            load.as_secs_f64() * 1e6,
            run.as_secs_f64() * 1e6,
            unloaded.as_secs_f64() * 1e6,
        );
        if share > LOAD_CEILING {
            failures.push(format!(
                "{}: Cpu::new + drop is {share:.3} of its bare run, above {LOAD_CEILING}",
                spec.name
            ));
        }
    }
    let crc_ratio = fast_crc.as_secs_f64() / slow_crc.as_secs_f64();
    println!(
        "fixed_cost: crc32 on {PAYLOAD_BYTES} bytes {:.3} us, byte-wise {:.3} us, ratio {crc_ratio:.2} (ceiling {CRC_CEILING})",
        fast_crc.as_secs_f64() * 1e6,
        slow_crc.as_secs_f64() * 1e6,
    );
    if crc_ratio > CRC_CEILING {
        failures.push(format!(
            "crc32 takes {crc_ratio:.2} of the byte-wise oracle's time, above {CRC_CEILING}"
        ));
    }
    let decode_ratio = round.as_secs_f64() / parse.as_secs_f64();
    println!(
        "fixed_cost: decoder round on a {}-byte request frame {:.3} us, Frame::from_bytes {:.3} us, ratio {decode_ratio:.1} (ceiling {DECODE_CEILING})",
        frame.len(),
        round.as_secs_f64() * 1e6,
        parse.as_secs_f64() * 1e6,
    );
    if decode_ratio > DECODE_CEILING {
        failures.push(format!(
            "a decoder round costs {decode_ratio:.1}x Frame::from_bytes, above {DECODE_CEILING}"
        ));
    }
    assert!(
        failures.is_empty(),
        "fixed costs too high:\n{}",
        failures.join("\n")
    );
    println!("fixed_cost: PASS");
}
