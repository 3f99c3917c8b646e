//! Print the micro-architectural loop inventory (the paper's Figure 1/2
//! taxonomy) for the base machine and for a DRA machine, showing how the
//! DRA shrinks the load-resolution loop and introduces the
//! operand-resolution loop.
//!
//! ```text
//! cargo run --release --example loop_anatomy
//! ```

use looseloops::{loop_inventory, PipelineConfig};

fn print_inventory(title: &str, cfg: &PipelineConfig) {
    println!("== {title} ==");
    println!(
        "   (DEC-IQ={} IQ-EX={} RF read={} cycles)",
        cfg.dec_iq_stages, cfg.iq_ex_stages, cfg.rf_read_latency
    );
    for l in loop_inventory(cfg) {
        println!("   {l}");
    }
    println!();
}

fn main() {
    let base = PipelineConfig::base();
    print_inventory("base machine (paper section 2)", &base);

    for rf in [3, 5, 7] {
        let dra = PipelineConfig::dra_for_rf(rf);
        print_inventory(&format!("DRA machine, {rf}-cycle register file"), &dra);
    }

    // The headline numbers of the paper's loop arithmetic.
    let loops = loop_inventory(&base);
    let load = loops.iter().find(|l| l.name == "load resolution").unwrap();
    println!(
        "paper check: base load-resolution loop delay = {} (the paper's 8 cycles)",
        load.loop_delay()
    );
    let dra = loop_inventory(&PipelineConfig::dra_for_rf(3));
    let load_dra = dra.iter().find(|l| l.name == "load resolution").unwrap();
    let op = dra.iter().find(|l| l.name == "operand resolution").unwrap();
    println!(
        "under the DRA it shrinks to {} — at the cost of a new loose loop (operand resolution, delay {})",
        load_dra.loop_delay(),
        op.loop_delay()
    );
}
