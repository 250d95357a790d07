//! The CLI subcommands. Each returns the text to print.

use std::fmt::Write as _;

use imt_bitcode::tables::CodeTable;
use imt_bitcode::TransformSet;
use imt_cfg::{hot_loops, Cfg};
use imt_core::{encode_program, eval::evaluate, EncoderConfig};
use imt_isa::disasm::disassemble_word;
use imt_sim::Cpu;

use crate::container;
use crate::CliError;

/// Parses `--flag value` style options out of an argument list, returning
/// (positional, lookup).
struct Options<'a> {
    positional: Vec<&'a str>,
    flags: Vec<(&'a str, Option<&'a str>)>,
}

/// Flags that take a value; everything else starting with `--` is boolean.
const VALUE_FLAGS: &[&str] = &[
    "-o",
    "--max-steps",
    "--block-size",
    "--tt",
    "--bbit",
    "-k",
    "--trace",
    "--trace-head",
    "--trace-tail",
    "--emit-tables",
    "--plan",
    "--protection",
    "--targets",
    "--trials",
    "--seed",
    "--bits",
    "--window",
    "--workers",
    "--queue",
    "--max-batch",
    "--requests",
    "--block-sizes",
    "--deadline-ms",
    "--delivery-ms",
    "--results",
    "--listen",
    "--for-requests",
    "--tenant",
    "--tenant-quota",
    "--retries",
    "--reactors",
    "--repeat",
];

fn parse<'a>(args: &'a [String]) -> Options<'a> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        if arg.starts_with('-') && arg.len() > 1 {
            if VALUE_FLAGS.contains(&arg.as_str()) {
                flags.push((arg.as_str(), iter.next().map(String::as_str)));
            } else {
                flags.push((arg.as_str(), None));
            }
        } else {
            positional.push(arg.as_str());
        }
    }
    Options { positional, flags }
}

impl Options<'_> {
    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| *f == name)
            .and_then(|(_, v)| *v)
    }

    fn numeric(&self, name: &str, default: u64) -> Result<u64, CliError> {
        match self.value(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| CliError::new(format!("{name} expects a number, got `{text}`"))),
        }
    }

    fn input(&self) -> Result<&str, CliError> {
        self.positional
            .first()
            .copied()
            .ok_or_else(|| CliError::new("expected an input file"))
    }
}

fn encoder_config(opts: &Options<'_>) -> Result<EncoderConfig, CliError> {
    let mut config = EncoderConfig::default()
        .with_tt_capacity(opts.numeric("--tt", 16)? as usize)
        .with_bbit_capacity(opts.numeric("--bbit", 16)? as usize);
    config = config
        .with_block_size(opts.numeric("--block-size", 5)? as usize)
        .map_err(|e| CliError::new(e.to_string()))?;
    if opts.flag("--all-sixteen") {
        config = config.with_transforms(TransformSet::ALL_SIXTEEN)?;
    }
    Ok(config)
}

pub fn asm(args: &[String]) -> Result<String, CliError> {
    let opts = parse(args);
    let path = opts.input()?;
    let source = std::fs::read_to_string(path)?;
    let program = imt_isa::asm::assemble(&source)?;
    let mut out = format!(
        "assembled {path}: {} instructions, {} data bytes, entry {:#010x}\n",
        program.text.len(),
        program.data.len(),
        program.entry
    );
    if let Some(output) = opts.value("-o") {
        std::fs::write(output, container::save(&program))?;
        writeln!(out, "wrote image to {output}").expect("write to String");
    } else if opts.flag("--listing") {
        out.push_str(&imt_isa::disasm::listing(&program));
    } else {
        for (name, address) in &program.symbols {
            writeln!(out, "  {address:#010x} {name}").expect("write to String");
        }
    }
    Ok(out)
}

pub fn dis(args: &[String]) -> Result<String, CliError> {
    let opts = parse(args);
    let program = container::load_program(opts.input()?)?;
    let mut out = String::new();
    // Invert the symbol table for labelling.
    for (index, &word) in program.text.iter().enumerate() {
        let address = program.address_of_index(index);
        for (name, &sym_address) in &program.symbols {
            if sym_address == address {
                writeln!(out, "{name}:").expect("write to String");
            }
        }
        writeln!(
            out,
            "  {address:#010x}  {word:08x}  {}",
            disassemble_word(word)
        )
        .expect("write to String");
    }
    Ok(out)
}

pub fn run(args: &[String]) -> Result<String, CliError> {
    let opts = parse(args);
    let program = container::load_program(opts.input()?)?;
    let max_steps = opts.numeric("--max-steps", 1_000_000_000)?;
    // `--trace N` keeps N fetches at each end; `--trace-head` /
    // `--trace-tail` override one end independently.
    let trace_depth = opts.numeric("--trace", 0)?;
    let head = opts.numeric("--trace-head", trace_depth)? as usize;
    let tail = opts.numeric("--trace-tail", trace_depth)? as usize;
    let mut cpu = Cpu::new(&program)?;
    let mut trace = imt_sim::trace::TraceRecorder::new(head, tail);
    let summary = cpu.run_with_sink(max_steps, &mut trace)?;
    let mut out = String::new();
    if head > 0 || tail > 0 {
        out.push_str(&trace.render());
    }
    out.push_str(cpu.stdout());
    if !out.is_empty() && !out.ends_with('\n') {
        out.push('\n');
    }
    writeln!(
        out,
        "[exit {} after {} instructions]",
        summary.exit_code, summary.instructions
    )
    .expect("write to String");
    Ok(out)
}

pub fn profile(args: &[String]) -> Result<String, CliError> {
    let opts = parse(args);
    let program = container::load_program(opts.input()?)?;
    let max_steps = opts.numeric("--max-steps", 1_000_000_000)?;
    let mut cpu = Cpu::new(&program)?;
    cpu.run(max_steps)?;
    let cfg = Cfg::build(&program).map_err(|e| CliError::new(e.to_string()))?;
    let loops = hot_loops(&cfg, cpu.profile());
    let mix = imt_sim::stats::InstructionMix::from_profile(&program, cpu.profile())
        .map_err(|e| CliError::new(e.to_string()))?;
    if imt_obs::enabled() {
        mix.publish_obs("profile");
    }
    let mut out = format!(
        "{} instructions executed, {} basic blocks, {} natural loops\n",
        cpu.instructions(),
        cfg.blocks().len(),
        loops.len()
    );
    out.push_str("instruction mix:\n");
    out.push_str(&mix.render());
    out.push_str("hottest loops:\n");
    for (rank, l) in loops.iter().take(10).enumerate() {
        writeln!(
            out,
            "  #{rank}: header {:#010x}, {} block(s), {} fetches ({:.1}% of all)",
            cfg.block_address(l.natural_loop.header),
            l.natural_loop.body.len(),
            l.fetch_weight,
            l.fetch_share * 100.0
        )
        .expect("write to String");
    }
    Ok(out)
}

pub fn encode(args: &[String]) -> Result<String, CliError> {
    let opts = parse(args);
    let program = container::load_program(opts.input()?)?;
    let max_steps = opts.numeric("--max-steps", 1_000_000_000)?;
    let config = encoder_config(&opts)?;
    let mut cpu = Cpu::new(&program)?;
    cpu.run(max_steps)?;
    let encoded = encode_program(&program, cpu.profile(), &config)?;
    let eval = evaluate(&program, &encoded, max_steps)?;
    let mut out = format!(
        "block size {}, {} transforms, TT {}/{} entries, BBIT {}/{} entries\n",
        config.block_size(),
        config.transforms().len(),
        encoded.report.tt_used,
        config.tt_capacity(),
        encoded.report.bbit_used,
        config.bbit_capacity()
    );
    for info in &encoded.report.encoded {
        writeln!(
            out,
            "  encoded {:#010x} ({} instrs, {} TT entries, {} fetches)",
            info.start_pc, info.instructions, info.tt_count, info.fetch_weight
        )
        .expect("write to String");
    }
    writeln!(
        out,
        "bus transitions: {} -> {} ({:.1}% reduction over {} fetches, decoder verified)",
        eval.baseline_transitions,
        eval.encoded_transitions,
        eval.reduction_percent(),
        eval.fetches
    )
    .expect("write to String");
    if let Some(path) = opts.value("--emit-tables") {
        let image = imt_core::tableimage::pack_tables(&encoded)?;
        std::fs::write(path, &image)?;
        writeln!(out, "wrote {}-byte table image to {path}", image.len()).expect("write to String");
    }
    Ok(out)
}

pub fn schedule(args: &[String]) -> Result<String, CliError> {
    let opts = parse(args);
    let program = container::load_program(opts.input()?)?;
    let max_steps = opts.numeric("--max-steps", 1_000_000_000)?;
    let config = encoder_config(&opts)?;
    let mut cpu = Cpu::new(&program)?;
    cpu.run(max_steps)?;
    let (scheduled, report) =
        imt_core::schedule::schedule_program(&program, cpu.profile(), &config)?;
    let mut out = format!(
        "scheduled {} of {} hot blocks; static encoded transitions {} -> {}\n",
        report.reordered, report.considered, report.encoded_before, report.encoded_after
    );
    if let Some(path) = opts.value("-o") {
        std::fs::write(path, container::save(&scheduled))?;
        writeln!(out, "wrote scheduled image to {path}").expect("write to String");
    }
    // Prove behaviour is unchanged as part of the command.
    let mut original = Cpu::new(&program)?;
    original.run(max_steps)?;
    let mut rescheduled = Cpu::new(&scheduled)?;
    rescheduled.run(max_steps)?;
    if original.stdout() != rescheduled.stdout() {
        return Err(CliError::new(
            "internal error: scheduling changed program output",
        ));
    }
    writeln!(out, "verified: scheduled program output is identical").expect("write to String");
    Ok(out)
}

pub fn analyze(args: &[String]) -> Result<String, CliError> {
    let opts = parse(args);
    let program = container::load_program(opts.input()?)?;
    let max_steps = opts.numeric("--max-steps", 1_000_000_000)?;
    let config = encoder_config(&opts)?;
    let mut cpu = Cpu::new(&program)?;
    cpu.run(max_steps)?;
    let encoded = encode_program(&program, cpu.profile(), &config)?;
    let eval = evaluate(&program, &encoded, max_steps)?;
    let words: Vec<u64> = program.text.iter().map(|&w| w as u64).collect();
    let stats = imt_bitcode::analysis::analyze_lanes(&words, 32);
    let mut out = String::from("static per-lane structure of the text segment:\n");
    out.push_str(&imt_bitcode::analysis::render_lane_table(&stats));
    out.push_str("\ndynamic per-lane transitions (baseline -> encoded):\n");
    for lane in 0..32 {
        let before = eval.per_lane_baseline[lane];
        let after = eval.per_lane_encoded[lane];
        let reduction = if before == 0 {
            0.0
        } else {
            (before as f64 - after as f64) / before as f64 * 100.0
        };
        writeln!(
            out,
            "  lane {lane:>2}: {before:>10} -> {after:>10}  ({reduction:>5.1}%)"
        )
        .expect("write to String");
    }
    let budget = imt_core::hardware::HardwareBudget::of_schedule(&encoded);
    writeln!(
        out,
        "hardware budget: {} bytes of tables, ~{} restore gates",
        budget.total_bytes(),
        budget.restore_gates
    )
    .expect("write to String");
    writeln!(out, "total reduction: {:.1}%", eval.reduction_percent()).expect("write to String");
    Ok(out)
}

pub fn tables(args: &[String]) -> Result<String, CliError> {
    let opts = parse(args);
    let k = opts.numeric("-k", opts.numeric("--block-size", 5)?)? as usize;
    let set = if opts.flag("--all-sixteen") {
        TransformSet::ALL_SIXTEEN
    } else {
        TransformSet::CANONICAL_EIGHT
    };
    let table = CodeTable::build(k, set).map_err(|e| CliError::new(e.to_string()))?;
    let mut out = table.render();
    writeln!(
        out,
        "TTN = {}  RTN = {}  improvement = {:.1}%",
        table.total_transitions(),
        table.reduced_transitions(),
        table.improvement_percent()
    )
    .expect("write to String");
    Ok(out)
}

pub fn obs(args: &[String]) -> Result<String, CliError> {
    let opts = parse(args);
    match opts.positional.first().copied() {
        Some("check") => obs_check(opts.positional.get(1).copied()),
        Some("report") => obs_report(opts.positional.get(1).copied()),
        Some("trace") if opts.positional.get(1).copied() == Some("export") => {
            obs_trace_export(opts.positional.get(2).copied(), opts.value("-o"))
        }
        Some("regress") => obs_regress(&opts),
        _ => Err(CliError::new(
            "usage: imt obs check [dir] | imt obs report <manifest.json> \
             | imt obs trace export [dir | manifest.json] [-o out.json] \
             | imt obs regress [--results DIR] [--window N]",
        )),
    }
}

/// Converts the trace sections of one manifest (or every traced manifest
/// in a directory; default: the active obs directory) into one Chrome
/// trace-event JSON file loadable by `chrome://tracing` and Perfetto.
fn obs_trace_export(input: Option<&str>, out_path: Option<&str>) -> Result<String, CliError> {
    use imt_obs::json::Json;
    let input = input
        .map(std::path::PathBuf::from)
        .unwrap_or_else(imt_obs::manifest::obs_dir);
    let paths: Vec<std::path::PathBuf> = if input.is_file() {
        vec![input.clone()]
    } else {
        let mut paths: Vec<_> = std::fs::read_dir(&input)
            .map_err(|e| CliError::new(format!("cannot read {}: {e}", input.display())))?
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
            .collect();
        paths.sort();
        paths
    };
    let mut runs: Vec<(String, Vec<imt_obs::trace::TraceEvent>)> = Vec::new();
    let mut dropped = 0u64;
    let mut skipped = 0usize;
    for path in &paths {
        let text = std::fs::read_to_string(path)?;
        let doc = Json::parse(&text)
            .map_err(|e| CliError::new(format!("{}: not valid JSON: {e}", path.display())))?;
        imt_obs::manifest::validate(&doc)
            .map_err(|e| CliError::new(format!("{}: {e}", path.display())))?;
        let Some(section) = doc.get("trace") else {
            skipped += 1;
            continue;
        };
        let (events, run_dropped) = imt_obs::trace::events_from_json(section)
            .map_err(|e| CliError::new(format!("{}: {e}", path.display())))?;
        dropped += run_dropped;
        let run = doc.get("run").and_then(Json::as_str).unwrap_or("?");
        let status = doc.get("status").and_then(Json::as_str).unwrap_or("");
        let run = if status == "aborted" {
            format!("{run} (aborted)")
        } else {
            run.to_string()
        };
        runs.push((run, events));
    }
    if runs.is_empty() {
        return Err(CliError::new(format!(
            "no manifest with a trace section under {} — run with IMT_OBS=trace first",
            input.display()
        )));
    }
    let spans: usize = runs
        .iter()
        .map(|(_, events)| {
            events
                .iter()
                .filter(|e| e.kind == imt_obs::trace::TraceKind::Span)
                .count()
        })
        .sum();
    let total: usize = runs.iter().map(|(_, events)| events.len()).sum();
    let chrome = imt_obs::trace::chrome_trace(&runs);
    // Self-check before writing: the artifact must be loadable.
    imt_obs::trace::validate_chrome(&chrome).map_err(CliError::new)?;
    let out_path = std::path::PathBuf::from(out_path.unwrap_or("trace.json"));
    if let Some(parent) = out_path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(&out_path, chrome.render_pretty() + "\n")?;
    let mut out = format!(
        "exported {total} trace event(s) ({spans} spans) from {} run(s) to {}\n",
        runs.len(),
        out_path.display()
    );
    if dropped > 0 {
        writeln!(out, "warning: {dropped} event(s) were dropped at capture").expect("write");
    }
    if skipped > 0 {
        writeln!(
            out,
            "{skipped} manifest(s) had no trace section (not IMT_OBS=trace runs)"
        )
        .expect("write");
    }
    writeln!(
        out,
        "load it in chrome://tracing or https://ui.perfetto.dev"
    )
    .expect("write");
    Ok(out)
}

/// Compares the current `BENCH_*.json` artifacts against the recorded
/// perf history, failing (nonzero exit) on any out-of-tolerance
/// regression. The CI gate behind `imt obs regress`.
fn obs_regress(opts: &Options<'_>) -> Result<String, CliError> {
    let results = std::path::PathBuf::from(opts.value("--results").unwrap_or("results"));
    let window = opts.numeric("--window", imt_bench::history::DEFAULT_WINDOW as u64)? as usize;
    let history = imt_bench::history::read_history(&results).map_err(CliError::new)?;
    if history.is_empty() {
        return Ok(format!(
            "no perf history at {} — run `imt bench --record` to start one\n",
            results.join(imt_bench::history::FILE).display()
        ));
    }
    let docs = imt_bench::history::load_docs(&results).map_err(CliError::new)?;
    let current = imt_bench::history::summarize(&docs).map_err(CliError::new)?;
    let checks = imt_bench::history::regress(&history, &current, window);
    let scale = current
        .get("scale")
        .and_then(imt_obs::json::Json::as_str)
        .unwrap_or("?");
    let mut out = format!(
        "perf regress: {} metric(s) vs median of last {} same-scale ({scale}) entries of {}\n",
        checks.len(),
        window,
        history.len()
    );
    let mut regressions = Vec::new();
    for check in &checks {
        let direction = if check.policy.higher_is_better {
            "min"
        } else {
            "max"
        };
        let verdict = if check.regressed { "FAIL" } else { "ok  " };
        writeln!(
            out,
            "  {verdict}  {:<30} current {:>12.3}  baseline {:>12.3} ({} samples, {direction} {:.3})",
            check.metric, check.current, check.baseline, check.samples, check.bound()
        )
        .expect("write to String");
        if check.regressed {
            regressions.push(check.metric.clone());
        }
    }
    if checks.is_empty() {
        writeln!(
            out,
            "no overlapping metrics between current artifacts and history — nothing to compare"
        )
        .expect("write to String");
    }
    if regressions.is_empty() {
        writeln!(out, "no regressions").expect("write to String");
        Ok(out)
    } else {
        Err(CliError::new(format!(
            "{out}performance regression in {}: {}",
            results.display(),
            regressions.join(", ")
        )))
    }
}

/// Validates every `*.json` manifest in `dir` (default: the active obs
/// directory) against the `imt-obs/v1` schema. Any invalid manifest makes
/// the command fail — this is the CI gate behind `imt obs check`.
fn obs_check(dir: Option<&str>) -> Result<String, CliError> {
    use imt_obs::json::Json;
    let dir = dir
        .map(std::path::PathBuf::from)
        .unwrap_or_else(imt_obs::manifest::obs_dir);
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| CliError::new(format!("cannot read {}: {e}", dir.display())))?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(CliError::new(format!(
            "no manifests (*.json) in {}",
            dir.display()
        )));
    }
    let mut out = String::new();
    let mut failures = Vec::new();
    let mut aborted = 0usize;
    for path in &paths {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let verdict = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text).map_err(|e| e.to_string()))
            .and_then(|doc| imt_obs::manifest::validate(&doc).map(|()| doc));
        match verdict {
            Ok(doc) => {
                let count = |key: &str| {
                    doc.get(key)
                        .and_then(Json::as_array)
                        .map_or(0, |items| items.len())
                };
                // An aborted manifest is schema-valid — it was flushed
                // on purpose by the crash guard — but worth flagging:
                // the run it describes never finished.
                let status = doc.get("status").and_then(Json::as_str);
                let tag = if status == Some("aborted") {
                    aborted += 1;
                    "ABRT"
                } else {
                    "ok  "
                };
                writeln!(
                    out,
                    "  {tag}  {name}  ({} metrics, {} events)",
                    count("metrics"),
                    count("events")
                )
                .expect("write to String");
            }
            Err(error) => {
                writeln!(out, "  FAIL  {name}: {error}").expect("write to String");
                failures.push(name);
            }
        }
    }
    if failures.is_empty() {
        writeln!(
            out,
            "{} manifest(s) valid against {}",
            paths.len(),
            imt_obs::manifest::SCHEMA
        )
        .expect("write to String");
        if aborted > 0 {
            writeln!(
                out,
                "warning: {aborted} aborted run(s) — crashed before finish_run; rerun or delete"
            )
            .expect("write to String");
        }
        Ok(out)
    } else {
        Err(CliError::new(format!(
            "{out}{} of {} manifest(s) invalid in {}",
            failures.len(),
            paths.len(),
            dir.display()
        )))
    }
}

/// Summarises one manifest file: run identity, caller sections, and the
/// counters/gauges/spans it captured.
fn obs_report(path: Option<&str>) -> Result<String, CliError> {
    use imt_obs::json::Json;
    let path = path.ok_or_else(|| CliError::new("usage: imt obs report <manifest.json>"))?;
    let text = std::fs::read_to_string(path)?;
    let doc =
        Json::parse(&text).map_err(|e| CliError::new(format!("{path}: not valid JSON: {e}")))?;
    imt_obs::manifest::validate(&doc).map_err(|e| CliError::new(format!("{path}: {e}")))?;
    let run = doc.get("run").and_then(Json::as_str).unwrap_or("?");
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_array)
        .map(<[Json]>::to_vec)
        .unwrap_or_default();
    let events = doc
        .get("events")
        .and_then(Json::as_array)
        .map_or(0, |e| e.len());
    let mut out = format!(
        "run `{run}` ({} metrics, {events} events, schema {})\n",
        metrics.len(),
        imt_obs::manifest::SCHEMA
    );
    if let Json::Obj(pairs) = &doc {
        let sections: Vec<&str> = pairs
            .iter()
            .map(|(k, _)| k.as_str())
            .filter(|k| !matches!(*k, "schema" | "run" | "metrics" | "events"))
            .collect();
        if !sections.is_empty() {
            writeln!(out, "sections: {}", sections.join(", ")).expect("write to String");
        }
    }
    for (kind, header) in [
        ("counter", "counters"),
        ("gauge", "gauges"),
        ("histogram", "histograms"),
        ("span", "spans"),
    ] {
        let group: Vec<&Json> = metrics
            .iter()
            .filter(|m| m.get("kind").and_then(Json::as_str) == Some(kind))
            .collect();
        if group.is_empty() {
            continue;
        }
        writeln!(out, "{header}:").expect("write to String");
        for metric in group {
            let name = metric.get("name").and_then(Json::as_str).unwrap_or("?");
            let label = metric.get("label").and_then(Json::as_str).unwrap_or("");
            let slot = if label.is_empty() {
                name.to_string()
            } else {
                format!("{name}{{{label}}}")
            };
            let field = |key: &str| metric.get(key).and_then(Json::as_u64).unwrap_or(0);
            match kind {
                "counter" | "gauge" => {
                    writeln!(out, "  {slot} = {}", field("value")).expect("write to String");
                }
                "histogram" => {
                    writeln!(
                        out,
                        "  {slot}: count={} sum={} min={} max={}",
                        field("count"),
                        field("sum"),
                        field("min"),
                        field("max")
                    )
                    .expect("write to String");
                }
                _ => {
                    let count = field("count");
                    let total = field("total_ns");
                    let mean = total.checked_div(count).unwrap_or(0);
                    writeln!(
                        out,
                        "  {slot}: count={count} total={:.3}ms mean={:.3}ms",
                        total as f64 / 1e6,
                        mean as f64 / 1e6
                    )
                    .expect("write to String");
                }
            }
        }
    }
    Ok(out)
}

pub fn kernels(args: &[String]) -> Result<String, CliError> {
    let opts = parse(args);
    match opts.positional.first() {
        None => {
            let mut out = String::from("paper benchmarks (add a name to run at test scale):\n");
            for kernel in imt_kernels::Kernel::ALL {
                let spec = kernel.shared_spec(false);
                writeln!(out, "  {:<6} paper instance: {}", kernel.name(), spec.name)
                    .expect("write to String");
            }
            Ok(out)
        }
        Some(name) => {
            let kernel = imt_kernels::Kernel::ALL
                .into_iter()
                .find(|k| k.name() == *name)
                .ok_or_else(|| CliError::new(format!("unknown kernel `{name}`")))?;
            let spec = kernel.shared_spec(!opts.flag("--paper-scale"));
            let run = spec.run()?;
            let verified = run.stdout == spec.expected_output;
            Ok(format!(
                "{}: {} instructions, output {:?}, golden model match: {verified}\n",
                spec.name,
                run.instructions,
                run.stdout.trim_end()
            ))
        }
    }
}

pub fn bench(args: &[String]) -> Result<String, CliError> {
    let opts = parse(args);
    // The runner consults the process environment/arguments, so a flag on
    // `imt bench` maps onto the same switch the experiment binaries use.
    if opts.flag("--no-profile-cache") {
        std::env::set_var(imt_core::profile_cache::MODE_ENV, "off");
    }
    let scale = if opts.flag("--test-scale") {
        imt_bench::runner::Scale::Test
    } else {
        imt_bench::runner::Scale::Paper
    };
    let grid = imt_bench::runner::figure6_grid(scale);
    let mut table = imt_bench::table::Table::new(
        ["kernel", "baseline (M)", "k=4", "k=5", "k=6", "k=7"]
            .map(String::from)
            .to_vec(),
    );
    for row in &grid {
        let mut cells = vec![
            row[0].instance.clone(),
            format!("{:.2}", row[0].baseline_millions()),
        ];
        cells.extend(
            row.iter()
                .map(|point| format!("{:.1}%", point.reduction_percent())),
        );
        table.row(cells);
    }
    let mut out = format!(
        "figure 6 grid at {scale:?} scale (replay evaluation, profile cache {}):\n",
        if imt_bench::runner::profile_cache_enabled() {
            "on"
        } else {
            "off"
        }
    );
    out.push_str(&table.render());
    // The perf-history sentinel: summarise whatever BENCH_*.json
    // artifacts are on disk (stamped with *their* scale, not this run's
    // flags) and append one history entry for `imt obs regress`.
    if opts.flag("--record") {
        let results = std::path::PathBuf::from(opts.value("--results").unwrap_or("results"));
        let docs = imt_bench::history::load_docs(&results).map_err(CliError::new)?;
        let entry = imt_bench::history::summarize(&docs).map_err(CliError::new)?;
        let (path, n) = imt_bench::history::append(&results, &entry).map_err(CliError::new)?;
        let metrics = entry
            .get("metrics")
            .and_then(imt_obs::json::Json::as_object)
            .map_or(0, <[_]>::len);
        writeln!(
            out,
            "recorded history entry #{n} ({} scale, {metrics} metric(s)) -> {}",
            entry
                .get("scale")
                .and_then(imt_obs::json::Json::as_str)
                .unwrap_or("?"),
            path.display()
        )
        .expect("write to String");
    }
    Ok(out)
}

pub fn arena(args: &[String]) -> Result<String, CliError> {
    let opts = parse(args);
    match opts.positional.first().copied() {
        Some("run") => arena_run(&opts),
        Some("report") => arena_report(opts.positional.get(1).copied()),
        _ => Err(CliError::new(
            "usage: imt arena run [--test-scale] [--results DIR] |\n\
             \x20      imt arena report [BENCH_arena.json]",
        )),
    }
}

/// `imt arena run`: score every scheme on every kernel and refresh
/// `results/BENCH_arena.json` (or `DIR/BENCH_arena.json` under
/// `--results DIR`), the artifact's one writer.
fn arena_run(opts: &Options<'_>) -> Result<String, CliError> {
    let scale = if opts.flag("--test-scale") {
        imt_bench::runner::Scale::Test
    } else {
        imt_bench::runner::Scale::Paper
    };
    let grid = imt_bench::arena::arena_grid(scale);
    let mut out = format!("encoder arena at {scale:?} scale:\n");
    for arena in &grid {
        writeln!(
            out,
            "\n{} — {} fetches, {} baseline transitions, budget {} bits",
            arena.instance, arena.fetches, arena.baseline_transitions, arena.budget_bits
        )
        .expect("write to String");
        let mut table = imt_bench::table::Table::new(
            ["scheme", "bits", "encoded", "reduction", "path", "front"]
                .map(String::from)
                .to_vec(),
        );
        for row in &arena.rows {
            table.row(vec![
                row.label.clone(),
                row.storage_bits.to_string(),
                row.evaluation.encoded_transitions.to_string(),
                format!("{:.2}%", row.reduction_percent()),
                row.path.to_string(),
                if row.pareto { "*" } else { "" }.to_string(),
            ]);
        }
        out.push_str(&table.render());
        writeln!(
            out,
            "best single: {} ({:.2}%); auto-select: {} ({:.2}%, {} bits, donor {})",
            arena.best_row().label,
            arena.best_row().reduction_percent(),
            arena.auto.winner,
            arena.auto.reduction_percent(),
            arena.auto.selection.bits_used,
            arena.auto.tt_donor
        )
        .expect("write to String");
    }
    let results = std::path::PathBuf::from(opts.value("--results").unwrap_or("results"));
    let doc = imt_bench::arena::arena_doc(&grid, scale);
    std::fs::create_dir_all(&results)?;
    let path = results.join("BENCH_arena.json");
    std::fs::write(&path, format!("{}\n", doc.render_pretty()))?;
    writeln!(out, "\nwrote {}", path.display()).expect("write to String");
    Ok(out)
}

/// `imt arena report`: summarise an existing `BENCH_arena.json`.
fn arena_report(path: Option<&str>) -> Result<String, CliError> {
    use imt_obs::json::Json;
    let path = path.unwrap_or("results/BENCH_arena.json");
    let text = std::fs::read_to_string(path)?;
    let doc =
        Json::parse(&text).map_err(|e| CliError::new(format!("{path}: not valid JSON: {e}")))?;
    let kernels = doc
        .get("kernels")
        .and_then(Json::as_array)
        .ok_or_else(|| CliError::new(format!("{path}: missing `kernels` array")))?;
    let scale = doc.get("scale").and_then(Json::as_str).unwrap_or("?");
    let mut out = format!("{path}: {} kernel(s) at {scale} scale\n", kernels.len());
    for kernel in kernels {
        let get_str = |j: &Json, key: &str| {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .unwrap_or_else(|| "?".to_string())
        };
        let reduction = |j: &Json| {
            j.get("reduction_percent")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN)
        };
        let instance = get_str(kernel, "instance");
        let best = kernel
            .get("best_single")
            .ok_or_else(|| CliError::new(format!("{path}: {instance}: missing `best_single`")))?;
        let auto = kernel
            .get("auto")
            .ok_or_else(|| CliError::new(format!("{path}: {instance}: missing `auto`")))?;
        let front: Vec<String> = kernel
            .get("rows")
            .and_then(Json::as_array)
            .map(|rows| {
                rows.iter()
                    .filter(|r| r.get("pareto").and_then(Json::as_bool) == Some(true))
                    .map(|r| get_str(r, "label"))
                    .collect()
            })
            .unwrap_or_default();
        writeln!(
            out,
            "  {:<12} best {} {:.2}%  auto {} {:.2}% (donor {})  front: {}",
            instance,
            get_str(best, "label"),
            reduction(best),
            get_str(auto, "winner"),
            reduction(auto),
            get_str(auto, "tt_donor"),
            front.join(" ")
        )
        .expect("write to String");
    }
    Ok(out)
}

pub fn cache(args: &[String]) -> Result<String, CliError> {
    match args.first().map(String::as_str) {
        None | Some("stats") => {
            let stats = imt_core::profile_cache::stats();
            let state = if imt_core::profile_cache::enabled() {
                "enabled"
            } else {
                "disabled (IMT_PROFILE_CACHE=off)"
            };
            Ok(format!(
                "profile cache: {state}\n  dir:     {}\n  entries: {}\n  bytes:   {}\n",
                stats.dir.display(),
                stats.entries,
                stats.bytes
            ))
        }
        Some("clear") => {
            let dir = imt_core::profile_cache::stats().dir;
            let removed = imt_core::profile_cache::clear()?;
            Ok(format!(
                "removed {removed} cached profile(s) from {}\n",
                dir.display()
            ))
        }
        Some(other) => Err(CliError::new(format!(
            "unknown cache subcommand `{other}` (expected `stats` or `clear`)"
        ))),
    }
}

pub fn fault(args: &[String]) -> Result<String, CliError> {
    let opts = parse(args);
    match opts.positional.first().copied() {
        Some("inject") => fault_inject(&opts),
        Some("campaign") => fault_campaign(&opts),
        Some("report") => fault_report(opts.positional.get(1).copied()),
        _ => Err(CliError::new(
            "usage: imt fault inject <file> --plan AT:TARGET[,..] [--protection P] |\n\
             \x20      imt fault campaign <file> [--trials N] [--seed S] [--protection P|all]\n\
             \x20          [--targets tables|text|bus] [--bits N] |\n\
             \x20      imt fault report [BENCH_fault.json]",
        )),
    }
}

/// Shared front half of `fault inject` / `fault campaign`: simulate,
/// encode with the standard encoder flags, and record the fetch trace the
/// faults replay against.
fn fault_prepare(
    opts: &Options<'_>,
) -> Result<(imt_core::EncodedProgram, imt_fault::trace::FetchTrace), CliError> {
    let path = opts
        .positional
        .get(1)
        .copied()
        .ok_or_else(|| CliError::new("expected an input file after the fault subcommand"))?;
    let program = container::load_program(path)?;
    let max_steps = opts.numeric("--max-steps", 1_000_000_000)?;
    let window = opts.numeric("--window", 50_000)? as usize;
    let config = encoder_config(opts)?;
    let mut cpu = Cpu::new(&program)?;
    cpu.run(max_steps)?;
    let encoded = encode_program(&program, cpu.profile(), &config)?;
    let trace = imt_fault::trace::FetchTrace::record(&program, &encoded, max_steps, window)
        .map_err(|e| CliError::new(e.to_string()))?;
    Ok((encoded, trace))
}

fn fault_protection(opts: &Options<'_>, default: &str) -> Result<imt_core::Protection, CliError> {
    let name = opts.value("--protection").unwrap_or(default);
    imt_core::Protection::parse(name).ok_or_else(|| {
        CliError::new(format!(
            "--protection expects none|parity|sec, got `{name}`"
        ))
    })
}

/// Replays one explicit fault plan and reports exactly what happened.
fn fault_inject(opts: &Options<'_>) -> Result<String, CliError> {
    let plan_spec = opts
        .value("--plan")
        .ok_or_else(|| CliError::new("fault inject requires --plan AT:TARGET[,AT:TARGET...]"))?;
    let plan =
        imt_fault::plan::FaultPlan::parse(plan_spec).map_err(|e| CliError::new(e.to_string()))?;
    let protection = fault_protection(opts, "parity")?;
    let (encoded, trace) = fault_prepare(opts)?;
    let outcome = imt_fault::trace::replay(&trace, &encoded, protection, &plan)
        .map_err(|e| CliError::new(e.to_string()))?;
    let mut out = format!(
        "protection {protection}, {} fetches replayed, {} fault(s) applied:\n",
        outcome.fetches, outcome.injected
    );
    for f in plan.faults() {
        writeln!(out, "  fetch {:>8}: {}", f.at_fetch, f.target).expect("write to String");
    }
    writeln!(
        out,
        "corrected {} entries, detected {} entries, {} fetches degraded to original words",
        outcome.corrected, outcome.detected, outcome.degraded_fetches
    )
    .expect("write to String");
    writeln!(
        out,
        "bus transitions {} -> {} ({:.2}% reduction retained)",
        outcome.baseline_transitions,
        outcome.bus_transitions,
        outcome.reduction_percent()
    )
    .expect("write to String");
    let verdict = if outcome.wrong_words > 0 {
        format!(
            "SILENT CORRUPTION: {} wrong word(s) reached the core",
            outcome.wrong_words
        )
    } else if outcome.degraded_fetches > 0 || outcome.detected > 0 {
        "degraded gracefully: zero wrong words reached the core".to_string()
    } else if outcome.corrected > 0 {
        "corrected in place: full reduction kept, zero wrong words".to_string()
    } else {
        "no observable effect".to_string()
    };
    writeln!(out, "verdict: {verdict}").expect("write to String");
    Ok(out)
}

/// Runs a seeded upset campaign; `--protection all` sweeps every level.
fn fault_campaign(opts: &Options<'_>) -> Result<String, CliError> {
    let targets_name = opts.value("--targets").unwrap_or("tables");
    let targets = imt_fault::plan::TargetClass::parse(targets_name).ok_or_else(|| {
        CliError::new(format!(
            "--targets expects tables|text|bus, got `{targets_name}`"
        ))
    })?;
    let levels: Vec<imt_core::Protection> = if opts.value("--protection") == Some("all") {
        imt_core::Protection::ALL.to_vec()
    } else {
        vec![fault_protection(opts, "none")?]
    };
    let trials = opts.numeric("--trials", 32)? as usize;
    let seed = opts.numeric("--seed", 0x1317_2003)?;
    let bits = opts.numeric("--bits", 1)? as usize;
    let (encoded, trace) = fault_prepare(opts)?;
    let mut out = format!(
        "{trials} trial(s) of {bits} {targets_name} upset bit(s) over {} recorded fetches (seed {seed:#x}):\n",
        trace.len()
    );
    writeln!(
        out,
        "{:<10}  {:>6}  {:>9}  {:>8}  {:>6}  {:>8}  {:>9}  {:>12}",
        "protection",
        "benign",
        "corrected",
        "degraded",
        "silent",
        "SDC rate",
        "coverage%",
        "retained red%"
    )
    .expect("write to String");
    for protection in levels {
        let spec = imt_fault::campaign::CampaignSpec {
            trials,
            seed,
            protection,
            targets,
            bits_per_trial: bits,
        };
        let s = imt_fault::campaign::run_campaign(&trace, &encoded, &spec)
            .map_err(|e| CliError::new(e.to_string()))?;
        writeln!(
            out,
            "{:<10}  {:>6}  {:>9}  {:>8}  {:>6}  {:>8.3}  {:>9.1}  {:>12.2}",
            protection.name(),
            s.benign,
            s.corrected,
            s.degraded,
            s.silent,
            s.sdc_rate(),
            s.coverage() * 100.0,
            s.retained_reduction_percent,
        )
        .expect("write to String");
    }
    Ok(out)
}

/// Summarises a `BENCH_fault.json` produced by the `exp_fault` experiment.
fn fault_report(path: Option<&str>) -> Result<String, CliError> {
    use imt_obs::json::Json;
    let path = path.unwrap_or("results/BENCH_fault.json");
    let text = std::fs::read_to_string(path)?;
    let doc =
        Json::parse(&text).map_err(|e| CliError::new(format!("{path}: not valid JSON: {e}")))?;
    let cells = doc
        .get("cells")
        .and_then(Json::as_array)
        .ok_or_else(|| CliError::new(format!("{path}: missing `cells` array")))?;
    let mut out = format!("{path}: {} campaign cell(s)\n", cells.len());
    for protection in imt_core::Protection::ALL {
        let group: Vec<&Json> = cells
            .iter()
            .filter(|c| c.get("protection").and_then(Json::as_str) == Some(protection.name()))
            .collect();
        if group.is_empty() {
            continue;
        }
        let sum = |key: &str| -> u64 {
            group
                .iter()
                .map(|c| c.get(key).and_then(Json::as_u64).unwrap_or(0))
                .sum()
        };
        let mean = |key: &str| -> f64 {
            group
                .iter()
                .filter_map(|c| c.get(key).and_then(Json::as_f64))
                .sum::<f64>()
                / group.len() as f64
        };
        let trials = sum("trials");
        let silent = sum("silent");
        writeln!(
            out,
            "  {:<6}  {} cells, {} trials: {} silent ({:.1}% SDC), {} corrected, {} degraded; \
             mean retained reduction {:.2}% of clean {:.2}%",
            protection.name(),
            group.len(),
            trials,
            silent,
            if trials == 0 {
                0.0
            } else {
                silent as f64 / trials as f64 * 100.0
            },
            sum("corrected"),
            sum("degraded"),
            mean("retained_reduction_percent"),
            mean("clean_reduction_percent"),
        )
        .expect("write to String");
    }
    let protected_silent: u64 = cells
        .iter()
        .filter(|c| c.get("protection").and_then(Json::as_str) != Some("none"))
        .map(|c| c.get("silent").and_then(Json::as_u64).unwrap_or(0))
        .sum();
    writeln!(
        out,
        "verdict: {}",
        if protected_silent == 0 {
            "no silent corruption under any protected cell"
        } else {
            "SILENT CORRUPTION under a protected cell — investigate"
        }
    )
    .expect("write to String");
    Ok(out)
}

/// Scale switch shared by the service commands: the paper instances by
/// default, `--test-scale` for the small ones (mirrors `imt bench`).
fn serve_scale(opts: &Options<'_>) -> imt_bench::runner::Scale {
    if opts.flag("--test-scale") {
        imt_bench::runner::Scale::Test
    } else {
        imt_bench::runner::Scale::Paper
    }
}

/// Resolves positional kernel names (empty → all six paper kernels).
fn resolve_kernels(names: &[&str]) -> Result<Vec<imt_kernels::Kernel>, CliError> {
    if names.is_empty() {
        return Ok(imt_kernels::Kernel::ALL.to_vec());
    }
    names
        .iter()
        .map(|name| {
            imt_kernels::Kernel::ALL
                .into_iter()
                .find(|k| k.name() == *name)
                .ok_or_else(|| CliError::new(format!("unknown kernel `{name}`")))
        })
        .collect()
}

/// Parses `--block-sizes 4,5,7` style lists.
fn parse_block_sizes(list: &str) -> Result<Vec<usize>, CliError> {
    list.split(',')
        .map(|part| {
            part.trim()
                .parse::<usize>()
                .map_err(|_| CliError::new(format!("--block-sizes expects numbers, got `{part}`")))
        })
        .collect()
}

/// `imt batch`: submit kernel × block-size encode/eval requests through
/// the `imt-serve` service and print each result as it is answered.
pub fn batch(args: &[String]) -> Result<String, CliError> {
    use imt_serve::request::Request;
    use imt_serve::service::{Service, ServiceConfig};

    let opts = parse(args);
    let scale = serve_scale(&opts);
    let kernels = resolve_kernels(&opts.positional)?;
    let block_sizes = parse_block_sizes(opts.value("--block-sizes").unwrap_or("4,5,6,7"))?;
    let workers = opts.numeric("--workers", 2)? as usize;
    let jobs = kernels.len() * block_sizes.len();
    let service = Service::start(
        ServiceConfig::default()
            .with_workers(workers)
            .with_queue_capacity(jobs.max(1))
            .with_max_batch(block_sizes.len().max(1)),
    );
    let mut tickets = Vec::with_capacity(jobs);
    for &kernel in &kernels {
        for &k in &block_sizes {
            let config = EncoderConfig::default()
                .with_block_size(k)
                .map_err(|e| CliError::new(e.to_string()))?;
            let request = Request::new(
                kernel.shared_spec(scale == imt_bench::runner::Scale::Test),
                config,
            );
            tickets.push(
                service
                    .submit(request)
                    .map_err(|e| CliError::new(e.to_string()))?,
            );
        }
    }
    let mut table = imt_bench::table::Table::new(
        [
            "kernel",
            "k",
            "reduction%",
            "blocks",
            "batch",
            "queue ms",
            "service ms",
        ]
        .map(String::from)
        .to_vec(),
    );
    let mut failures: Vec<String> = Vec::new();
    for ticket in tickets {
        let response = ticket.wait();
        match &response.outcome {
            Ok(done) => table.row(vec![
                response.kernel.clone(),
                response.block_size.to_string(),
                format!("{:.2}", done.evaluation.reduction_percent()),
                done.encoded_blocks.to_string(),
                response.batch_size.to_string(),
                format!("{:.1}", response.queue_ns as f64 / 1e6),
                format!("{:.1}", response.service_ns as f64 / 1e6),
            ]),
            Err(e) => failures.push(format!(
                "{} k={}: {e}",
                response.kernel, response.block_size
            )),
        }
    }
    let stats = service.stats();
    service.shutdown();
    let mut out = format!(
        "batched {jobs} encode/eval request(s) over {workers} worker(s) ({} scale):\n",
        scale.name()
    );
    out.push_str(&table.render());
    writeln!(
        out,
        "served in {} batch(es), mean batch size {:.2}",
        stats.batches,
        stats.mean_batch_size()
    )
    .expect("write to String");
    for failure in &failures {
        writeln!(out, "FAILED: {failure}").expect("write to String");
    }
    Ok(out)
}

/// `imt serve`: run a closed-loop load session against an in-process
/// service and report throughput, latency percentiles, and batching.
pub fn serve(args: &[String]) -> Result<String, CliError> {
    use imt_serve::request::Request;
    use imt_serve::service::{Admission, Service, ServiceConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};

    let opts = parse(args);
    let scale = serve_scale(&opts);
    let workers = opts.numeric("--workers", 2)? as usize;
    let queue = opts.numeric("--queue", 32)? as usize;
    let max_batch = opts.numeric("--max-batch", 8)? as usize;
    let requests = opts.numeric("--requests", 24)? as usize;
    let deadline_ms = opts.numeric("--deadline-ms", 0)?;
    let delivery_ms = opts.numeric("--delivery-ms", 0)?;
    let admission = if opts.flag("--reject") {
        Admission::Reject
    } else {
        Admission::Block
    };
    let mut config = ServiceConfig::default()
        .with_workers(workers)
        .with_queue_capacity(queue)
        .with_max_batch(max_batch)
        .with_admission(admission);
    if delivery_ms > 0 {
        config = config.with_delivery_latency(std::time::Duration::from_millis(delivery_ms));
    }
    if deadline_ms > 0 {
        config = config.with_default_deadline(std::time::Duration::from_millis(deadline_ms));
    }
    let tenant_quota = opts.numeric("--tenant-quota", 0)? as usize;
    if tenant_quota > 0 {
        config = config.with_tenant_quota(tenant_quota);
    }
    if let Some(addr) = opts.value("--listen") {
        return serve_listen(&opts, config, addr);
    }
    let service = Service::start(config);

    // Deterministic request sequence: kernels × block sizes 4–7, cycled.
    let cells: Vec<(imt_kernels::Kernel, usize)> = imt_kernels::Kernel::ALL
        .iter()
        .flat_map(|&kernel| (4..=7).map(move |k| (kernel, k)))
        .collect();
    let next = AtomicUsize::new(0);
    let rejected = AtomicUsize::new(0);
    let latencies = std::sync::Mutex::new(Vec::with_capacity(requests));
    let clients = workers.max(4).min(requests.max(1));
    let started = std::time::Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= requests {
                    break;
                }
                let (kernel, k) = cells[i % cells.len()];
                let config = EncoderConfig::default()
                    .with_block_size(k)
                    .expect("block sizes 4..=7 are valid");
                let spec = kernel.shared_spec(scale == imt_bench::runner::Scale::Test);
                match service.submit(Request::new(spec, config)) {
                    Ok(ticket) => {
                        let response = ticket.wait();
                        latencies
                            .lock()
                            .expect("latency collection lock")
                            .push(response.latency_ns());
                    }
                    Err(imt_serve::ServeError::Overloaded { .. }) => {
                        rejected.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => break,
                }
            });
        }
    });
    let wall = started.elapsed();
    let stats = service.stats();
    service.shutdown();

    let mut latencies = latencies.into_inner().expect("latency collection lock");
    latencies.sort_unstable();
    let pct = |p: f64| {
        if latencies.is_empty() {
            0.0
        } else {
            let rank = ((p / 100.0) * (latencies.len() - 1) as f64).round() as usize;
            latencies[rank] as f64 / 1e6
        }
    };
    let mut out = format!(
        "closed-loop session, {requests} request(s), {clients} client(s), {} scale:\n\
         \x20 workers={workers} queue={queue} max-batch={max_batch} admission={}\n",
        scale.name(),
        match admission {
            Admission::Block => "block",
            Admission::Reject => "reject",
        },
    );
    writeln!(
        out,
        "  completed = {}, failed = {}, rejected = {}",
        stats.completed,
        stats.failed,
        rejected.load(Ordering::Relaxed)
    )
    .expect("write to String");
    writeln!(
        out,
        "  wall = {:.0} ms, throughput = {:.1} req/s",
        wall.as_secs_f64() * 1e3,
        stats.completed as f64 / wall.as_secs_f64()
    )
    .expect("write to String");
    writeln!(
        out,
        "  latency p50/p90/p99 = {:.1}/{:.1}/{:.1} ms",
        pct(50.0),
        pct(90.0),
        pct(99.0)
    )
    .expect("write to String");
    writeln!(
        out,
        "  batches = {} (mean size {:.2}), peak queue depth = {}",
        stats.batches,
        stats.mean_batch_size(),
        stats.peak_depth
    )
    .expect("write to String");
    Ok(out)
}

/// `imt serve --listen ADDR`: exposes the job service over TCP or a
/// Unix socket using the `imt-net` wire protocol, served by the epoll
/// reactor (`--reactors N` event loops, default 2). With
/// `--for-requests N` the server answers N requests and exits (the
/// testable mode); without it, it serves until the process is killed.
/// Admission is forced to typed rejection: an event loop must never
/// park on a full queue.
fn serve_listen(
    opts: &Options<'_>,
    config: imt_serve::service::ServiceConfig,
    addr: &str,
) -> Result<String, CliError> {
    use imt_net::reactor::{ReactorConfig, ReactorServer};
    use imt_net::ListenAddr;
    use imt_serve::service::{Admission, Service};

    let listen = ListenAddr::parse(addr).map_err(CliError::new)?;
    let for_requests = opts.numeric("--for-requests", 0)?;
    let reactors = opts.numeric("--reactors", 2)?.max(1) as usize;
    let service = std::sync::Arc::new(Service::start(config.with_admission(Admission::Reject)));
    let server = ReactorServer::start(
        std::sync::Arc::clone(&service),
        &listen,
        ReactorConfig::default().with_reactors(reactors),
    )
    .map_err(|e| CliError::new(format!("cannot listen on {listen}: {e}")))?;
    // The bound address matters when the caller asked for port 0.
    eprintln!(
        "imt serve: listening on {} (reactor ×{reactors})",
        server.local_addr()
    );
    loop {
        std::thread::sleep(std::time::Duration::from_millis(20));
        let answered = {
            let s = server.stats();
            s.responses + s.protocol_errors
        };
        if for_requests > 0 && answered >= for_requests {
            break;
        }
    }
    let net = server.stats();
    server.stop();
    let stats = service.stats();
    match std::sync::Arc::try_unwrap(service) {
        Ok(service) => service.shutdown(),
        Err(_) => return Err(CliError::new("server kept a service handle after stop")),
    }
    let mut out = format!(
        "served {} request(s) over {} ({} connection(s)):\n",
        net.responses, listen, net.connections
    );
    writeln!(out, "  mode: reactor ×{reactors} event loops").expect("write to String");
    writeln!(
        out,
        "  completed = {}, failed = {}, quota-rejected = {}",
        stats.completed, stats.failed, stats.quota_rejected
    )
    .expect("write to String");
    writeln!(
        out,
        "  admission: submitted = {}, admission hits = {} (memo hits, never queued)",
        stats.submitted, stats.admission_hits
    )
    .expect("write to String");
    writeln!(
        out,
        "  wire: bad requests = {}, protocol errors = {}, read timeouts = {}",
        net.bad_requests, net.protocol_errors, net.read_timeouts
    )
    .expect("write to String");
    Ok(out)
}

/// `imt client ADDR [kernels..]`: drives a remote `imt serve --listen`
/// through the wire protocol, one request per kernel × block size.
/// The whole run — including `--repeat N` passes over the matrix —
/// rides a single pooled persistent connection instead of a fresh
/// connect per request; the pool health-checks it on every checkout
/// and transparently redials if the server restarted.
pub fn client(args: &[String]) -> Result<String, CliError> {
    use imt_net::msg::NetRequest;
    use imt_net::pool::{ClientPool, PoolConfig};
    use imt_net::ListenAddr;

    let opts = parse(args);
    let scale = serve_scale(&opts);
    let Some((addr_text, kernel_names)) = opts.positional.split_first() else {
        return Err(CliError::new(
            "expected a server address (host:port or unix:PATH)",
        ));
    };
    let addr = ListenAddr::parse(addr_text).map_err(CliError::new)?;
    let kernels = resolve_kernels(kernel_names)?;
    let block_sizes = parse_block_sizes(opts.value("--block-sizes").unwrap_or("4,5,6,7"))?;
    let tenant = opts.value("--tenant").unwrap_or("");
    let retries = opts.numeric("--retries", 2)? as u32;
    let deadline_ms = opts.numeric("--deadline-ms", 30_000)?;
    let repeat = opts.numeric("--repeat", 1)?.max(1) as usize;
    let mut pool_config = PoolConfig::default()
        .with_deadline(std::time::Duration::from_millis(deadline_ms))
        .with_max_idle(1);
    pool_config.retries = retries;
    let pool = ClientPool::new(addr, pool_config);

    let mut table = imt_bench::table::Table::new(
        [
            "kernel",
            "k",
            "reduction%",
            "blocks",
            "queue ms",
            "service ms",
        ]
        .map(String::from)
        .to_vec(),
    );
    let mut refused: Vec<String> = Vec::new();
    let mut completed = 0usize;
    for pass in 0..repeat {
        for &kernel in &kernels {
            for &k in &block_sizes {
                let mut request =
                    NetRequest::new(kernel.name(), scale == imt_bench::runner::Scale::Test)
                        .with_block_size(k as u32);
                if !tenant.is_empty() {
                    request = request.with_tenant(tenant);
                }
                let response = pool
                    .call(&request)
                    .map_err(|e| CliError::new(format!("{} k={k}: {e}", kernel.name())))?;
                match &response.outcome {
                    Ok(done) => {
                        completed += 1;
                        // The table shows one pass; later passes only
                        // count (their numbers repeat modulo noise).
                        if pass == 0 {
                            table.row(vec![
                                response.kernel.clone(),
                                response.block_size.to_string(),
                                format!("{:.2}", done.evaluation.reduction_percent()),
                                done.encoded_blocks.to_string(),
                                format!("{:.1}", response.queue_ns as f64 / 1e6),
                                format!("{:.1}", response.service_ns as f64 / 1e6),
                            ]);
                        }
                    }
                    Err(e) => refused.push(format!(
                        "{} k={}: {e}",
                        response.kernel, response.block_size
                    )),
                }
            }
        }
    }
    let mut out = table.render();
    for line in &refused {
        writeln!(out, "refused: {line}").expect("write to String");
    }
    if repeat > 1 {
        writeln!(
            out,
            "{repeat} passes over one persistent connection ({} idle in pool)",
            pool.idle_count(),
        )
        .expect("write to String");
    }
    writeln!(
        out,
        "{completed} completed, {} refused (tenant: {})",
        refused.len(),
        if tenant.is_empty() { "-" } else { tenant },
    )
    .expect("write to String");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp(name: &str, contents: &str) -> String {
        let path = std::env::temp_dir().join(format!("imt_cli_test_{name}_{}", std::process::id()));
        std::fs::write(&path, contents).unwrap();
        path.to_string_lossy().into_owned()
    }

    const LOOP_SRC: &str = "\
        .text\n\
main:   li $t0, 50\n\
loop:   xor $t1, $t1, $t0\n\
        addiu $t0, $t0, -1\n\
        bgtz $t0, loop\n\
        li $v0, 1\n\
        move $a0, $t1\n\
        syscall\n\
        li $v0, 10\n\
        syscall\n";

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn asm_listing_flag() {
        let src = write_temp("listing.s", LOOP_SRC);
        let out = asm(&args(&[&src, "--listing"])).unwrap();
        assert!(out.contains("main:"));
        assert!(out.contains("bgtz"));
        std::fs::remove_file(&src).ok();
    }

    #[test]
    fn asm_dis_run_pipeline() {
        let src = write_temp("pipeline.s", LOOP_SRC);
        let img = format!("{src}.imt");
        let out = asm(&args(&[&src, "-o", &img])).unwrap();
        assert!(out.contains("9 instructions"));
        let out = dis(&args(&[&img])).unwrap();
        assert!(out.contains("bgtz"));
        let out = run(&args(&[&img])).unwrap();
        assert!(out.contains("[exit 0"));
        std::fs::remove_file(&src).ok();
        std::fs::remove_file(&img).ok();
    }

    #[test]
    fn profile_reports_the_loop() {
        let src = write_temp("profile.s", LOOP_SRC);
        let out = profile(&args(&[&src])).unwrap();
        assert!(out.contains("natural loops"));
        assert!(out.contains("% of all"));
        assert!(out.contains("instruction mix"));
        assert!(out.contains("int-alu"));
        std::fs::remove_file(&src).ok();
    }

    #[test]
    fn run_with_trace_shows_head_and_tail() {
        let src = write_temp("trace.s", LOOP_SRC);
        let out = run(&args(&[&src, "--trace", "3"])).unwrap();
        assert!(out.contains("fetches elided"));
        assert!(out.contains("syscall"));
        std::fs::remove_file(&src).ok();
    }

    #[test]
    fn encode_reports_reduction() {
        let src = write_temp("encode.s", LOOP_SRC);
        let out = encode(&args(&[&src, "--block-size", "4"])).unwrap();
        assert!(out.contains("% reduction"));
        assert!(out.contains("decoder verified"));
        std::fs::remove_file(&src).ok();
    }

    #[test]
    fn encode_emits_a_loadable_table_image() {
        let src = write_temp("tables.s", LOOP_SRC);
        let img = format!("{src}.ttb");
        let out = encode(&args(&[&src, "--emit-tables", &img])).unwrap();
        assert!(out.contains("table image"));
        let bytes = std::fs::read(&img).unwrap();
        assert_eq!(&bytes[..4], b"TTB1");
        let unpacked =
            imt_core::tableimage::unpack_tables(&bytes, imt_bitcode::TransformSet::CANONICAL_EIGHT)
                .unwrap();
        assert!(!unpacked.tt.is_empty());
        std::fs::remove_file(&src).ok();
        std::fs::remove_file(&img).ok();
    }

    #[test]
    fn schedule_verifies_and_writes_an_image() {
        let src = write_temp("sched.s", LOOP_SRC);
        let img = format!("{src}.imt");
        let out = schedule(&args(&[&src, "-o", &img])).unwrap();
        assert!(out.contains("verified: scheduled program output is identical"));
        assert!(std::path::Path::new(&img).exists());
        // The written image runs and prints the same output.
        let rerun = run(&args(&[&img])).unwrap();
        let orig = run(&args(&[&src])).unwrap();
        assert_eq!(rerun, orig);
        std::fs::remove_file(&src).ok();
        std::fs::remove_file(&img).ok();
    }

    #[test]
    fn analyze_reports_lanes_and_budget() {
        let src = write_temp("analyze.s", LOOP_SRC);
        let out = analyze(&args(&[&src])).unwrap();
        assert!(out.contains("per-lane structure"));
        assert!(out.contains("hardware budget"));
        assert!(out.contains("total reduction"));
        std::fs::remove_file(&src).ok();
    }

    #[test]
    fn tables_prints_figure4_shape() {
        let out = tables(&args(&["-k", "3"])).unwrap();
        assert!(out.contains("improvement = 75.0%"));
        assert!(tables(&args(&["-k", "1"])).is_err());
    }

    #[test]
    fn kernels_list_and_run() {
        let out = kernels(&[]).unwrap();
        assert!(out.contains("mmul"));
        let out = kernels(&args(&["fft"])).unwrap();
        assert!(out.contains("golden model match: true"));
        assert!(kernels(&args(&["bogus"])).is_err());
    }

    #[test]
    fn trace_head_and_tail_flags_bound_each_end() {
        let src = write_temp("tracehead.s", LOOP_SRC);
        // Head only: no tail entries, so the elision marker runs to the end.
        let out = run(&args(&[&src, "--trace-head", "2"])).unwrap();
        let first = out.lines().next().unwrap();
        assert!(
            first.trim_start().starts_with('0'),
            "head starts at fetch 0: {first}"
        );
        assert!(out.contains("fetches elided"));
        assert!(!out
            .lines()
            .any(|l| l.contains("syscall") && l.contains("0x")));
        // Tail only: the final syscall is visible, fetch 0 is not.
        let out = run(&args(&[&src, "--trace-tail", "2"])).unwrap();
        assert!(out.contains("syscall"));
        assert!(!out.lines().next().unwrap().trim_start().starts_with("0 "));
        // `--trace N` remains the symmetric shorthand, overridable per end.
        let out = run(&args(&[&src, "--trace", "2", "--trace-tail", "1"])).unwrap();
        assert!(out.contains("fetches elided"));
        std::fs::remove_file(&src).ok();
    }

    #[test]
    fn obs_check_validates_a_directory() {
        let dir = std::env::temp_dir().join(format!("imt_cli_obs_check_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let good = r#"{"schema":"imt-obs/v1","run":"x","metrics":[],"events":[]}"#;
        std::fs::write(dir.join("good.json"), good).unwrap();
        let out = obs(&args(&["check", &dir.to_string_lossy()])).unwrap();
        assert!(out.contains("ok    good.json"));
        assert!(out.contains("1 manifest(s) valid"));
        // A crash-guard manifest is valid but flagged as aborted.
        let crashed = r#"{"schema":"imt-obs/v1","run":"y","status":"aborted",
            "metrics":[],"events":[]}"#;
        std::fs::write(dir.join("crashed.json"), crashed).unwrap();
        let out = obs(&args(&["check", &dir.to_string_lossy()])).unwrap();
        assert!(out.contains("ABRT  crashed.json"), "{out}");
        assert!(out.contains("2 manifest(s) valid"), "{out}");
        assert!(out.contains("warning: 1 aborted run(s)"), "{out}");
        // One bad manifest fails the whole check.
        std::fs::write(dir.join("bad.json"), r#"{"run":"x"}"#).unwrap();
        let err = obs(&args(&["check", &dir.to_string_lossy()])).unwrap_err();
        assert!(err.to_string().contains("FAIL  bad.json"));
        assert!(err.to_string().contains("missing `schema`"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn obs_report_summarises_a_manifest() {
        let dir = std::env::temp_dir().join(format!("imt_cli_obs_report_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = r#"{"schema":"imt-obs/v1","run":"demo",
            "environment":{"threads":4},
            "metrics":[
              {"name":"a.count","label":"","kind":"counter","value":3},
              {"name":"b.time","label":"tri","kind":"span",
               "count":2,"total_ns":4000000,"min_ns":1000000,"max_ns":3000000}],
            "events":[]}"#;
        let path = dir.join("demo.json");
        std::fs::write(&path, manifest).unwrap();
        let out = obs(&args(&["report", &path.to_string_lossy()])).unwrap();
        assert!(out.contains("run `demo`"));
        assert!(out.contains("sections: environment"));
        assert!(out.contains("a.count = 3"));
        assert!(out.contains("b.time{tri}: count=2 total=4.000ms mean=2.000ms"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn obs_without_subcommand_shows_usage() {
        let err = obs(&[]).unwrap_err();
        assert!(err.to_string().contains("imt obs check"));
        assert!(err.to_string().contains("imt obs trace export"));
        assert!(err.to_string().contains("imt obs regress"));
    }

    /// A manifest carrying a trace section, as `IMT_OBS=trace` writes:
    /// one request root with a nested child span and an instant.
    const TRACED_MANIFEST: &str = r#"{"schema":"imt-obs/v1","run":"traced",
        "metrics":[],"events":[],
        "trace":{"dropped":0,"events":[
          {"name":"serve.request","kind":"span","trace":1,"span":1,
           "parent":0,"thread":7,"start_ns":1000,"dur_ns":9000},
          {"name":"serve.execute","kind":"span","trace":1,"span":2,
           "parent":1,"thread":7,"start_ns":2000,"dur_ns":5000},
          {"name":"serve.respond","kind":"instant","trace":1,"span":3,
           "parent":1,"thread":7,"start_ns":9500,"dur_ns":0}]}}"#;

    #[test]
    fn obs_trace_export_writes_valid_chrome_json() {
        let dir = std::env::temp_dir().join(format!("imt_cli_trace_export_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("traced.json"), TRACED_MANIFEST).unwrap();
        // A manifest without a trace section is skipped, not an error.
        let plain = r#"{"schema":"imt-obs/v1","run":"plain","metrics":[],"events":[]}"#;
        std::fs::write(dir.join("plain.json"), plain).unwrap();
        let out_path = dir.join("out").join("trace.json");
        let out = obs(&args(&[
            "trace",
            "export",
            &dir.to_string_lossy(),
            "-o",
            &out_path.to_string_lossy(),
        ]))
        .unwrap();
        assert!(
            out.contains("exported 3 trace event(s) (2 spans) from 1 run(s)"),
            "{out}"
        );
        assert!(out.contains("1 manifest(s) had no trace section"), "{out}");
        let chrome =
            imt_obs::json::Json::parse(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
        imt_obs::trace::validate_chrome(&chrome).unwrap();
        let rendered = chrome.render();
        assert!(rendered.contains("serve.request"));
        assert!(rendered.contains("serve.respond"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn obs_trace_export_accepts_one_manifest_and_rejects_traceless_input() {
        let dir = std::env::temp_dir().join(format!("imt_cli_trace_one_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("traced.json");
        std::fs::write(&manifest, TRACED_MANIFEST).unwrap();
        let out_path = dir.join("trace.json");
        let out = obs(&args(&[
            "trace",
            "export",
            &manifest.to_string_lossy(),
            "-o",
            &out_path.to_string_lossy(),
        ]))
        .unwrap();
        assert!(out.contains("from 1 run(s)"), "{out}");
        assert!(out_path.exists());
        // A directory with no traced manifest at all is an error with a
        // hint at the env var that produces one.
        let empty = dir.join("empty");
        std::fs::create_dir_all(&empty).unwrap();
        let err = obs(&args(&["trace", "export", &empty.to_string_lossy()])).unwrap_err();
        assert!(err.to_string().contains("IMT_OBS=trace"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A minimal `BENCH_serve.json` at the given scale and throughput.
    fn write_serve_artifact(dir: &std::path::Path, scale: &str, rps: f64) {
        let doc = format!(
            r#"{{"scale":"{scale}","sweeps":[{{"workers":4,"throughput_rps":{rps},"p99_ms":4.0}}]}}"#
        );
        std::fs::write(dir.join("BENCH_serve.json"), doc).unwrap();
    }

    #[test]
    fn obs_regress_passes_baseline_and_fails_a_seeded_slowdown() {
        let dir = std::env::temp_dir().join(format!("imt_cli_regress_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let results = dir.to_string_lossy().into_owned();
        // No history yet: a pass with a pointer at `imt bench --record`.
        write_serve_artifact(&dir, "test", 100.0);
        let out = obs(&args(&["regress", "--results", &results])).unwrap();
        assert!(out.contains("no perf history"), "{out}");
        // Record three baseline entries, then check the same artifacts.
        for _ in 0..3 {
            let docs = imt_bench::history::load_docs(&dir).unwrap();
            let entry = imt_bench::history::summarize(&docs).unwrap();
            imt_bench::history::append(&dir, &entry).unwrap();
        }
        let out = obs(&args(&["regress", "--results", &results])).unwrap();
        assert!(out.contains("no regressions"), "{out}");
        assert!(out.contains("serve.throughput_rps"), "{out}");
        // Seed a 25% throughput slowdown: the gate must exit nonzero.
        write_serve_artifact(&dir, "test", 75.0);
        let err = obs(&args(&["regress", "--results", &results])).unwrap_err();
        assert!(err.to_string().contains("performance regression"), "{err}");
        assert!(err.to_string().contains("serve.throughput_rps"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_record_appends_a_history_entry() {
        let dir = std::env::temp_dir().join(format!("imt_cli_bench_record_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        write_serve_artifact(&dir, "test", 200.0);
        let out = bench(&args(&[
            "--test-scale",
            "--record",
            "--results",
            &dir.to_string_lossy(),
        ]))
        .unwrap();
        assert!(out.contains("figure 6 grid at Test scale"));
        assert!(
            out.contains("recorded history entry #1 (test scale"),
            "{out}"
        );
        let history = imt_bench::history::read_history(&dir).unwrap();
        assert_eq!(history.len(), 1);
        assert_eq!(
            history[0]
                .get("metrics")
                .and_then(|m| m.get("serve.throughput_rps"))
                .and_then(imt_obs::json::Json::as_f64),
            Some(200.0)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_without_subcommand_shows_usage() {
        let err = fault(&[]).unwrap_err();
        assert!(err.to_string().contains("imt fault campaign"));
    }

    #[test]
    fn fault_inject_degrades_under_parity() {
        let src = write_temp("fault_inject.s", LOOP_SRC);
        let out = fault(&args(&[
            "inject",
            &src,
            "--plan",
            "10:tt:0:3",
            "--protection",
            "parity",
        ]))
        .unwrap();
        assert!(out.contains("verdict: degraded gracefully"), "{out}");
        assert!(out.contains("tt:0:3"));
        std::fs::remove_file(&src).ok();
    }

    #[test]
    fn fault_inject_requires_a_plan() {
        let src = write_temp("fault_noplan.s", LOOP_SRC);
        let err = fault(&args(&["inject", &src])).unwrap_err();
        assert!(err.to_string().contains("--plan"));
        std::fs::remove_file(&src).ok();
    }

    #[test]
    fn fault_campaign_sweeps_all_protections() {
        let src = write_temp("fault_campaign.s", LOOP_SRC);
        let out = fault(&args(&[
            "campaign",
            &src,
            "--protection",
            "all",
            "--trials",
            "6",
        ]))
        .unwrap();
        for level in ["none", "parity", "sec"] {
            assert!(out.contains(level), "missing {level} row:\n{out}");
        }
        std::fs::remove_file(&src).ok();
    }

    #[test]
    fn fault_report_summarises_bench_json() {
        let doc = r#"{"cells": [
            {"protection": "none", "trials": 4, "silent": 2, "corrected": 0,
             "degraded": 0, "clean_reduction_percent": 30.0,
             "retained_reduction_percent": 30.0},
            {"protection": "parity", "trials": 4, "silent": 0, "corrected": 0,
             "degraded": 4, "clean_reduction_percent": 30.0,
             "retained_reduction_percent": 25.0}
        ]}"#;
        let path = write_temp("fault_report.json", doc);
        let out = fault(&["report".to_string(), path.clone()]).unwrap();
        assert!(out.contains("2 campaign cell(s)"));
        assert!(out.contains("no silent corruption under any protected cell"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn arena_report_summarises_bench_json() {
        let doc = r#"{"scale": "test", "kernels": [
            {"instance": "tri-12x3",
             "rows": [
                {"label": "tt-k7", "pareto": true},
                {"label": "gray", "pareto": false}
             ],
             "best_single": {"label": "tt-k7", "reduction_percent": 39.56},
             "auto": {"winner": "composite", "tt_donor": "tt-k7",
                      "reduction_percent": 41.57}}
        ]}"#;
        let path = write_temp("arena_report.json", doc);
        let out = arena(&args(&["report", &path])).unwrap();
        assert!(out.contains("1 kernel(s) at test scale"));
        assert!(out.contains("best tt-k7 39.56%"));
        assert!(out.contains("auto composite 41.57% (donor tt-k7)"));
        assert!(out.contains("front: tt-k7"));
        assert!(
            !out.contains("gray"),
            "non-front rows stay out of the front list"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn arena_requires_a_subcommand() {
        let err = arena(&[]).unwrap_err();
        assert!(err.to_string().contains("usage: imt arena"));
        let err = arena(&args(&["frobnicate"])).unwrap_err();
        assert!(err.to_string().contains("usage: imt arena"));
    }

    #[test]
    fn fault_rejects_bad_protection_and_targets() {
        let src = write_temp("fault_bad.s", LOOP_SRC);
        let err = fault(&args(&["campaign", &src, "--protection", "ecc"])).unwrap_err();
        assert!(err.to_string().contains("none|parity|sec"));
        let err = fault(&args(&["campaign", &src, "--targets", "cache"])).unwrap_err();
        assert!(err.to_string().contains("tables|text|bus"));
        std::fs::remove_file(&src).ok();
    }

    #[test]
    fn option_parsing_errors_are_friendly() {
        let err = run(&args(&["nonexistent_file.s"])).unwrap_err();
        assert!(err.to_string().contains("i/o error"));
        let src = write_temp("badnum.s", LOOP_SRC);
        let err = run(&args(&[&src, "--max-steps", "many"])).unwrap_err();
        assert!(err.to_string().contains("expects a number"));
        std::fs::remove_file(&src).ok();
    }

    #[test]
    fn bench_renders_the_grid_at_test_scale() {
        let out = bench(&args(&["--test-scale"])).unwrap();
        assert!(out.contains("figure 6 grid at Test scale"));
        assert!(out.contains("k=7"));
        for kernel in imt_kernels::Kernel::ALL {
            assert!(out.contains(kernel.name()), "missing {}", kernel.name());
        }
    }

    #[test]
    fn batch_serves_requests_through_the_service() {
        let out = batch(&args(&["tri", "--test-scale", "--block-sizes", "5,6"])).unwrap();
        assert!(out.contains("batched 2 encode/eval request(s)"));
        assert!(out.contains("tri-"), "instance name missing: {out}");
        assert!(out.contains("batch(es), mean batch size"));
        assert!(!out.contains("FAILED"), "no request should fail: {out}");
    }

    #[test]
    fn batch_rejects_unknown_kernels_and_bad_block_sizes() {
        let err = batch(&args(&["warp", "--test-scale"])).unwrap_err();
        assert!(err.to_string().contains("unknown kernel"));
        let err = batch(&args(&["tri", "--test-scale", "--block-sizes", "five"])).unwrap_err();
        assert!(err.to_string().contains("--block-sizes expects numbers"));
    }

    #[test]
    fn serve_runs_a_closed_loop_session() {
        let out = serve(&args(&[
            "--test-scale",
            "--requests",
            "6",
            "--workers",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("closed-loop session, 6 request(s)"));
        assert!(out.contains("completed = 6, failed = 0, rejected = 0"));
        assert!(out.contains("latency p50/p90/p99"));
    }

    #[test]
    fn serve_listen_and_client_round_trip_over_a_unix_socket() {
        let sock = std::env::temp_dir().join(format!(
            "imt-cli-net-{}-{}.sock",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let addr = format!("unix:{}", sock.display());
        let server = std::thread::spawn({
            let addr = addr.clone();
            move || {
                serve(&args(&[
                    "--listen",
                    &addr,
                    "--for-requests",
                    "1",
                    "--workers",
                    "1",
                ]))
            }
        });
        for _ in 0..500 {
            if sock.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let out = client(&args(&[
            &addr,
            "tri",
            "--block-sizes",
            "5",
            "--test-scale",
            "--tenant",
            "cli",
        ]))
        .unwrap();
        assert!(out.contains("tri-12x3"), "row for the kernel: {out}");
        assert!(
            out.contains("1 completed, 0 refused (tenant: cli)"),
            "{out}"
        );
        let summary = server.join().unwrap().unwrap();
        assert!(summary.contains("served 1 request(s)"), "{summary}");
        assert!(summary.contains("mode: reactor"), "{summary}");
        assert!(summary.contains("completed = 1, failed = 0"), "{summary}");
        assert!(
            summary.contains("submitted = 1, admission hits = 0"),
            "{summary}"
        );
        std::fs::remove_file(&sock).ok();
    }

    #[test]
    fn client_rejects_a_malformed_address() {
        let err = client(&args(&["unix:"])).unwrap_err();
        assert!(err.to_string().contains("missing its path"));
        let err = client(&[]).unwrap_err();
        assert!(err.to_string().contains("expected a server address"));
    }

    #[test]
    fn serve_listen_rejects_an_unbindable_address() {
        let err = serve(&args(&["--listen", "unix:/nonexistent-dir/x/y.sock"])).unwrap_err();
        assert!(err.to_string().contains("cannot listen"), "{err}");
    }

    #[test]
    fn cache_stats_and_bad_subcommand() {
        let out = cache(&args(&["stats"])).unwrap();
        assert!(out.contains("profile cache"));
        assert!(out.contains("imt-profile-cache"));
        // Bare `imt cache` is stats too.
        assert!(cache(&[]).unwrap().contains("entries:"));
        let err = cache(&args(&["purge"])).unwrap_err();
        assert!(err.to_string().contains("stats"));
    }
}
