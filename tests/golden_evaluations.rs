//! Golden evaluations: every scalar field of every scheme's evaluation,
//! pinned to a committed table.
//!
//! The committed `results/*.txt` print transition totals and reductions.
//! They do not print the decoded/passthrough split, the per-lane sums, or
//! what TT/BBIT reports under full simulation, so a drift there would pass
//! every byte-identity check. This test scores the six kernels at test
//! scale under TT/BBIT (k = 4..7), Gray, low-weight-16 and bus-invert,
//! twice each: with transitions-only needs (replay where the scheme's
//! class allows it, full simulation for bus-invert) and with icache needs
//! (always full simulation). Each evaluation becomes one line of the table
//! below: the route taken, every scalar field and both per-lane sums. The
//! program's output must also equal the kernel's golden output.
//!
//! The requests go through `imt_serve::Service`, the path every served
//! design point takes, so the table also pins that the service routes and
//! scores each scheme as the library does. On a mismatch the test prints
//! the whole table it computed.

use imt::core::eval::EvalNeeds;
use imt::core::scheme::SchemeSpec;
use imt::core::EncoderConfig;
use imt::kernels::Kernel;
use imt_serve::request::Request;
use imt_serve::service::{Service, ServiceConfig};

/// `kernel scheme needs route fetches baseline encoded Σlanes_baseline
/// Σlanes_encoded mismatches decoded passthrough exit`, one evaluation per
/// line.
const GOLDEN: &str = "\
mmul tt-k4 transitions Replay 7736 83909 53835 83909 53835 0 6680 1056 0
mmul tt-k4 icache FullSim(Icache) 7736 83909 53835 83909 53835 0 6680 1056 0
mmul tt-k5 transitions Replay 7736 83909 60905 83909 60905 0 6680 1056 0
mmul tt-k5 icache FullSim(Icache) 7736 83909 60905 83909 60905 0 6680 1056 0
mmul tt-k6 transitions Replay 7736 83909 66125 83909 66125 0 6680 1056 0
mmul tt-k6 icache FullSim(Icache) 7736 83909 66125 83909 66125 0 6680 1056 0
mmul tt-k7 transitions Replay 7736 83909 67021 83909 67021 0 6680 1056 0
mmul tt-k7 icache FullSim(Icache) 7736 83909 67021 83909 67021 0 6680 1056 0
mmul gray transitions Replay 7736 83909 87316 83909 87316 0 7736 0 0
mmul gray icache FullSim(Icache) 7736 83909 87316 83909 87316 0 7736 0 0
mmul lowweight-16 transitions Replay 7736 83909 36283 83909 36283 0 5888 1848 0
mmul lowweight-16 icache FullSim(Icache) 7736 83909 36283 83909 36283 0 5888 1848 0
mmul businvert transitions FullSim(ReplayInfeasible) 7736 83909 76195 83909 74499 0 0 7736 0
mmul businvert icache FullSim(Icache) 7736 83909 76195 83909 74499 0 0 7736 0
sor tt-k4 transitions Replay 4210 46527 24435 46527 24435 0 3680 530 0
sor tt-k4 icache FullSim(Icache) 4210 46527 24435 46527 24435 0 3680 530 0
sor tt-k5 transitions Replay 4210 46527 25369 46527 25369 0 3680 530 0
sor tt-k5 icache FullSim(Icache) 4210 46527 25369 46527 25369 0 3680 530 0
sor tt-k6 transitions Replay 4210 46527 31037 46527 31037 0 3680 530 0
sor tt-k6 icache FullSim(Icache) 4210 46527 31037 46527 31037 0 3680 530 0
sor tt-k7 transitions Replay 4210 46527 29991 46527 29991 0 3680 530 0
sor tt-k7 icache FullSim(Icache) 4210 46527 29991 46527 29991 0 3680 530 0
sor gray transitions Replay 4210 46527 44310 46527 44310 0 4210 0 0
sor gray icache FullSim(Icache) 4210 46527 44310 46527 44310 0 4210 0 0
sor lowweight-16 transitions Replay 4210 46527 31101 46527 31101 0 2536 1674 0
sor lowweight-16 icache FullSim(Icache) 4210 46527 31101 46527 31101 0 2536 1674 0
sor businvert transitions FullSim(ReplayInfeasible) 4210 46527 42193 46527 41175 0 0 4210 0
sor businvert icache FullSim(Icache) 4210 46527 42193 46527 41175 0 0 4210 0
ej tt-k4 transitions Replay 6310 64237 32555 64237 32555 0 5171 1139 0
ej tt-k4 icache FullSim(Icache) 6310 64237 32555 64237 32555 0 5171 1139 0
ej tt-k5 transitions Replay 6310 64237 36467 64237 36467 0 5171 1139 0
ej tt-k5 icache FullSim(Icache) 6310 64237 36467 64237 36467 0 5171 1139 0
ej tt-k6 transitions Replay 6310 64237 44759 64237 44759 0 5171 1139 0
ej tt-k6 icache FullSim(Icache) 6310 64237 44759 64237 44759 0 5171 1139 0
ej tt-k7 transitions Replay 6310 64237 39839 64237 39839 0 5171 1139 0
ej tt-k7 icache FullSim(Icache) 6310 64237 39839 64237 39839 0 5171 1139 0
ej gray transitions Replay 6310 64237 60374 64237 60374 0 6310 0 0
ej gray icache FullSim(Icache) 6310 64237 60374 64237 60374 0 6310 0 0
ej lowweight-16 transitions Replay 6310 64237 47777 64237 47777 0 3728 2582 0
ej lowweight-16 icache FullSim(Icache) 6310 64237 47777 64237 47777 0 3728 2582 0
ej businvert transitions FullSim(ReplayInfeasible) 6310 64237 58807 64237 57383 0 0 6310 0
ej businvert icache FullSim(Icache) 6310 64237 58807 64237 57383 0 0 6310 0
fft tt-k4 transitions Replay 2302 24243 15865 24243 15865 0 1473 829 0
fft tt-k4 icache FullSim(Icache) 2302 24243 15865 24243 15865 0 1473 829 0
fft tt-k5 transitions Replay 2302 24243 17775 24243 17775 0 1484 818 0
fft tt-k5 icache FullSim(Icache) 2302 24243 17775 24243 17775 0 1484 818 0
fft tt-k6 transitions Replay 2302 24243 17009 24243 17009 0 1626 676 0
fft tt-k6 icache FullSim(Icache) 2302 24243 17009 24243 17009 0 1626 676 0
fft tt-k7 transitions Replay 2302 24243 17621 24243 17621 0 1720 582 0
fft tt-k7 icache FullSim(Icache) 2302 24243 17621 24243 17621 0 1720 582 0
fft gray transitions Replay 2302 24243 25342 24243 25342 0 2302 0 0
fft gray icache FullSim(Icache) 2302 24243 25342 24243 25342 0 2302 0 0
fft lowweight-16 transitions Replay 2302 24243 21427 24243 21427 0 672 1630 0
fft lowweight-16 icache FullSim(Icache) 2302 24243 21427 24243 21427 0 672 1630 0
fft businvert transitions FullSim(ReplayInfeasible) 2302 24243 22811 24243 22513 0 0 2302 0
fft businvert icache FullSim(Icache) 2302 24243 22811 24243 22513 0 0 2302 0
tri tt-k4 transitions Replay 2874 30135 20307 30135 20307 0 1593 1281 0
tri tt-k4 icache FullSim(Icache) 2874 30135 20307 30135 20307 0 1593 1281 0
tri tt-k5 transitions Replay 2874 30135 18813 30135 18813 0 2244 630 0
tri tt-k5 icache FullSim(Icache) 2874 30135 18813 30135 18813 0 2244 630 0
tri tt-k6 transitions Replay 2874 30135 20559 30135 20559 0 2706 168 0
tri tt-k6 icache FullSim(Icache) 2874 30135 20559 30135 20559 0 2706 168 0
tri tt-k7 transitions Replay 2874 30135 18213 30135 18213 0 2721 153 0
tri tt-k7 icache FullSim(Icache) 2874 30135 18213 30135 18213 0 2721 153 0
tri gray transitions Replay 2874 30135 28902 30135 28902 0 2874 0 0
tri gray icache FullSim(Icache) 2874 30135 28902 30135 28902 0 2874 0 0
tri lowweight-16 transitions Replay 2874 30135 20799 30135 20799 0 1590 1284 0
tri lowweight-16 icache FullSim(Icache) 2874 30135 20799 30135 20799 0 1590 1284 0
tri businvert transitions FullSim(ReplayInfeasible) 2874 30135 27340 30135 26733 0 0 2874 0
tri businvert icache FullSim(Icache) 2874 30135 27340 30135 26733 0 0 2874 0
lu tt-k4 transitions Replay 5386 61207 32405 61207 32405 0 4755 631 0
lu tt-k4 icache FullSim(Icache) 5386 61207 32405 61207 32405 0 4755 631 0
lu tt-k5 transitions Replay 5386 61207 37215 61207 37215 0 4835 551 0
lu tt-k5 icache FullSim(Icache) 5386 61207 37215 61207 37215 0 4835 551 0
lu tt-k6 transitions Replay 5386 61207 42075 61207 42075 0 4835 551 0
lu tt-k6 icache FullSim(Icache) 5386 61207 42075 61207 42075 0 4835 551 0
lu tt-k7 transitions Replay 5386 61207 38185 61207 38185 0 4835 551 0
lu tt-k7 icache FullSim(Icache) 5386 61207 38185 61207 38185 0 4835 551 0
lu gray transitions Replay 5386 61207 59972 61207 59972 0 5386 0 0
lu gray icache FullSim(Icache) 5386 61207 59972 61207 59972 0 5386 0 0
lu lowweight-16 transitions Replay 5386 61207 33869 61207 33869 0 3420 1966 0
lu lowweight-16 icache FullSim(Icache) 5386 61207 33869 61207 33869 0 3420 1966 0
lu businvert transitions FullSim(ReplayInfeasible) 5386 61207 53672 61207 52305 0 0 5386 0
lu businvert icache FullSim(Icache) 5386 61207 53672 61207 52305 0 0 5386 0
";

/// The schemes under test, with their table labels and configurations.
fn schemes() -> Vec<(String, SchemeSpec, EncoderConfig)> {
    let mut schemes: Vec<_> = (4..=7)
        .map(|k| {
            let config = EncoderConfig::default()
                .with_block_size(k)
                .expect("paper block sizes are valid");
            (format!("tt-k{k}"), SchemeSpec::TtBbit, config)
        })
        .collect();
    schemes.push(("gray".into(), SchemeSpec::Gray, EncoderConfig::default()));
    schemes.push((
        format!("lowweight-{}", SchemeSpec::DEFAULT_LOW_WEIGHT_ENTRIES),
        SchemeSpec::LowWeight {
            entries: SchemeSpec::DEFAULT_LOW_WEIGHT_ENTRIES,
        },
        EncoderConfig::default(),
    ));
    schemes.push((
        "businvert".into(),
        SchemeSpec::BusInvert,
        EncoderConfig::default(),
    ));
    schemes
}

#[test]
fn every_scheme_evaluates_to_its_golden_fields_on_every_kernel() {
    let needs = [
        ("transitions", EvalNeeds::transitions_only()),
        (
            "icache",
            EvalNeeds {
                icache: true,
                ..EvalNeeds::default()
            },
        ),
    ];
    let service = Service::start(ServiceConfig::default().with_workers(2));
    let mut tickets = Vec::new();
    for kernel in Kernel::ALL {
        let spec = kernel.test_spec();
        for (label, scheme, config) in schemes() {
            for (needs_label, needs) in needs {
                let mut request = Request::new(spec.clone(), config).with_scheme(scheme);
                request.needs = needs;
                let ticket = service.submit(request).expect("queue open");
                let key = format!("{} {label} {needs_label}", kernel.name());
                tickets.push((key, spec.expected_output.clone(), ticket));
            }
        }
    }
    let mut table = String::new();
    for (key, expected_output, ticket) in tickets {
        let done = ticket
            .wait()
            .outcome
            .unwrap_or_else(|e| panic!("{key}: {e}"));
        let eval = &done.evaluation;
        assert_eq!(eval.stdout, expected_output, "{key}: behaviour changed");
        table.push_str(&format!(
            "{key} {:?} {} {} {} {} {} {} {} {} {}\n",
            done.path,
            eval.fetches,
            eval.baseline_transitions,
            eval.encoded_transitions,
            eval.per_lane_baseline.iter().sum::<u64>(),
            eval.per_lane_encoded.iter().sum::<u64>(),
            eval.decode_mismatches,
            eval.decoded_fetches,
            eval.passthrough_fetches,
            eval.exit_code,
        ));
    }
    service.shutdown();
    let first_difference = table
        .lines()
        .zip(GOLDEN.lines())
        .position(|(actual, golden)| actual != golden);
    assert!(
        first_difference.is_none() && table.lines().count() == GOLDEN.lines().count(),
        "evaluations differ from the golden table (first differing line: {first_difference:?}); \
         computed:\n{table}"
    );
}
