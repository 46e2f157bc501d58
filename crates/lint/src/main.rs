//! `simlint` CLI.
//!
//! ```text
//! simlint [--root DIR] [--format text|json|sarif] [--list-rules]
//!         [--explain RULE]
//! ```
//!
//! Exit codes: 0 = clean, 1 = findings, 2 = usage or I/O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use numa_gpu_lint::findings::rule_info;
use numa_gpu_lint::{lint_workspace, RULES};

enum Format {
    Text,
    Json,
    Sarif,
}

struct Opts {
    root: PathBuf,
    format: Format,
    list_rules: bool,
    explain: Option<String>,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        root: PathBuf::from("."),
        format: Format::Text,
        list_rules: false,
        explain: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let v = args.next().ok_or("--root needs a directory argument")?;
                opts.root = PathBuf::from(v);
            }
            "--format" => match args.next().as_deref() {
                Some("text") => opts.format = Format::Text,
                Some("json") => opts.format = Format::Json,
                Some("sarif") => opts.format = Format::Sarif,
                other => {
                    return Err(format!(
                        "--format must be `text`, `json` or `sarif`, got {:?}",
                        other.unwrap_or("nothing")
                    ))
                }
            },
            "--list-rules" => opts.list_rules = true,
            "--explain" => {
                let v = args.next().ok_or("--explain needs a rule ID argument")?;
                opts.explain = Some(v);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: simlint [--root DIR] [--format text|json|sarif] [--list-rules] \
                     [--explain RULE]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("simlint: {msg}");
            return ExitCode::from(2);
        }
    };
    if opts.list_rules {
        for r in RULES {
            println!("{}  {}", r.id, r.summary);
        }
        return ExitCode::SUCCESS;
    }
    if let Some(name) = &opts.explain {
        let Some(r) = rule_info(name) else {
            eprintln!("simlint: unknown rule `{name}`; try --list-rules for the catalogue");
            return ExitCode::from(2);
        };
        println!("{}  {}", r.id, r.summary);
        println!();
        println!("why:  {}", r.rationale);
        println!("fix:  {}", r.fix);
        return ExitCode::SUCCESS;
    }
    // Default to the workspace root when launched via `cargo run -p
    // numa-gpu-lint` from anywhere inside the tree.
    let root = if opts.root == Path::new(".") {
        std::env::var_os("CARGO_MANIFEST_DIR")
            .map(|d| {
                let d = PathBuf::from(d);
                d.parent()
                    .and_then(|p| p.parent())
                    .map(|p| p.to_path_buf())
                    .unwrap_or(d)
            })
            .unwrap_or(opts.root)
    } else {
        opts.root
    };
    let report = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simlint: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    match opts.format {
        Format::Json => println!("{}", report.to_json()),
        Format::Sarif => println!("{}", report.to_sarif()),
        Format::Text => {
            print!("{}", report.render_text());
            println!(
                "simlint: {} finding(s) across {} files and {} manifests",
                report.findings.len(),
                report.files_scanned,
                report.manifests_scanned
            );
        }
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
