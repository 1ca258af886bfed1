//! Regenerates every figure of the evaluation (§5) and prints one
//! markdown table per panel. Usage: `run_all [quick|full]`.
use rumor_bench::{fig10, fig11, fig9, Scale};

fn main() {
    let scale = std::env::args()
        .nth(1)
        .and_then(|s| Scale::parse(&s))
        .unwrap_or(Scale::Quick);
    println!("## RUMOR evaluation — measured results ({scale:?} scale)\n");
    for p in ["a", "b", "c", "d"] {
        fig9::run(p, scale);
    }
    for p in ["a", "b", "c", "d"] {
        fig10::run(p, scale);
    }
    for p in ["a", "b"] {
        fig11::run(p, scale);
    }
}
