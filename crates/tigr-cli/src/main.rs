//! `tigr` — command-line interface to the Tigr graph-transformation
//! toolkit.
//!
//! ```text
//! tigr stats <graph>                         degree statistics & K suggestions
//! tigr generate <model> -o <file>            synthetic graphs (rmat/ba/er/ws/grid/dataset)
//! tigr transform <topology> -i <in> -o <out> physical split transformations
//! tigr prepare --graph <file>                warm the prepared-graph artifact cache
//! tigr run <analytic> --graph <file>         analytics on the simulated GPU
//! tigr convert -i <in> -o <out>              format conversion by extension
//! ```

mod args;
mod commands;
mod io_util;

use args::Args;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(match dispatch(&raw) {
        Ok(output) => {
            print!("{output}");
            0
        }
        Err(message) => {
            eprintln!("error: {message}");
            if message.starts_with(commands::TIMEOUT_PREFIX) {
                commands::EXIT_TIMEOUT
            } else {
                2
            }
        }
    });
}

fn dispatch(raw: &[String]) -> commands::CmdResult {
    let command = raw.first().map(String::as_str).unwrap_or("help");
    let rest = if raw.is_empty() { &[] } else { &raw[1..] };
    let args = Args::parse(rest)?;
    match command {
        "stats" => commands::stats::run(&args),
        "analyze" => commands::analyze::run(&args),
        "generate" => commands::generate::run(&args),
        "transform" => commands::transform::run(&args),
        "prepare" => commands::prepare::run(&args),
        "run" => commands::run::run(&args),
        "serve" => commands::serve::run(&args),
        "query" => commands::query::run(&args),
        "mutate" => commands::mutate::run(&args),
        "ingest" => commands::ingest::run(&args),
        "convert" => convert(&args),
        "help" | "--help" | "-h" => Ok(HELP.to_string()),
        other => Err(format!("unknown command `{other}`\n{HELP}")),
    }
}

fn convert(args: &Args) -> commands::CmdResult {
    let input: String = args.require("i")?;
    let output: String = args.require("o")?;
    let g = io_util::load_graph(&input)?;
    io_util::save_graph(&g, &output)?;
    Ok(format!(
        "converted {input} -> {output} ({} nodes, {} edges)\n",
        g.num_nodes(),
        g.num_edges()
    ))
}

const HELP: &str = "tigr — transforming irregular graphs for GPU-friendly processing

commands:
  stats <graph>                          degree statistics & K suggestions
  analyze <graph> [--k K]                irregularity reduction per transformation
  generate <model> -o <file>             rmat | ba | er | ws | grid | dataset
  transform <topology> -i <in> -o <out>  udt | star | recursive-star | circular | clique
  prepare --graph <file>                 warm the artifact cache for later runs
  run <analytic> --graph <file>          bfs | sssp | sswp | cc | pr | bc | khop | paths | lp | tc
  serve --graph <file>                   long-lived query daemon (TCP/Unix socket)
  query <verb> --addr HOST:PORT          bfs | sssp | sswp | cc | pr | stats | ping
  mutate <op> --addr HOST:PORT           add-edge | remove-edge | add-node | set-weight | compact
  ingest --file <edges> --addr H:P       bulk-append an edge list into a mutable graph
  convert -i <in> -o <out>               formats by extension: .txt .mtx .gr .bin

formats: edge list (.txt), MatrixMarket (.mtx), DIMACS (.gr), binary (.bin/.tigr)
caching: --cache-dir DIR (or TIGR_CACHE_DIR) stores prepared TIGRCSR2 artifacts
mutation: serve --mutable accepts mutate/ingest (WAL + delta overlay); mutate compact folds the delta
deadlines: run/prepare/query accept --deadline-ms; expiry exits with code 3
";

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn help_by_default_and_on_request() {
        assert!(dispatch(&[]).unwrap().contains("commands:"));
        assert!(dispatch(&toks("help")).unwrap().contains("transform"));
    }

    #[test]
    fn unknown_command_errors_with_help() {
        let err = dispatch(&toks("frobnicate")).unwrap_err();
        assert!(err.contains("unknown command"));
        assert!(err.contains("commands:"));
    }

    #[test]
    fn full_pipeline_generate_transform_run() {
        let dir = std::env::temp_dir().join("tigr_cli_pipeline_test");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("raw.bin").to_str().unwrap().to_string();
        let trans = dir.join("udt.bin").to_str().unwrap().to_string();

        dispatch(&toks(&format!(
            "generate rmat --scale 8 --edge-factor 4 --weighted -o {raw}"
        )))
        .unwrap();
        let out = dispatch(&toks(&format!("transform udt -i {raw} -o {trans} --k 8"))).unwrap();
        assert!(out.contains("udt transform"));
        let cache = dir.join("cache").to_str().unwrap().to_string();
        let out = dispatch(&toks(&format!(
            "prepare --graph {raw} --virtual 10 --coalesced --cache-dir {cache}"
        )))
        .unwrap();
        assert!(out.contains("prepared"), "{out}");
        let out = dispatch(&toks(&format!(
            "run sssp --graph {raw} --virtual 10 --coalesced --direction auto --stats --cache-dir {cache}"
        )))
        .unwrap();
        assert!(out.contains("virtual+"));
        assert!(out.contains("cache           hit"), "{out}");
        let out = dispatch(&toks(&format!("stats {trans}"))).unwrap();
        assert!(out.contains("max degree"));
        let out = dispatch(&toks(&format!("analyze {raw} --k 8"))).unwrap();
        assert!(out.contains("virtual"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn convert_between_formats() {
        let dir = std::env::temp_dir().join("tigr_cli_convert_test");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.txt").to_str().unwrap().to_string();
        let b = dir.join("b.bin").to_str().unwrap().to_string();
        dispatch(&toks(&format!("generate grid --rows 4 --cols 4 -o {a}"))).unwrap();
        let out = dispatch(&toks(&format!("convert -i {a} -o {b}"))).unwrap();
        assert!(out.contains("16 nodes"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
