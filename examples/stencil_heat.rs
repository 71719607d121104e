//! Heat diffusion with `groupprivate` shared tiles — a domain application
//! of the §3.1/§3.3 extensions, and a live demonstration of *why* bare
//! mode matters (the §4.2.6 mechanism).
//!
//! A 1-D rod with hot ends diffuses heat by repeated 3-point averaging.
//! Three implementations, identical physics:
//!
//! * `ompx_bare` with a shared tile + `ompx_sync_thread_block` (Figure 4
//!   style, what the paper ports CUDA stencils to), written in phased form
//!   so the simulator runs each team's lanes as loops on one host thread;
//! * traditional OpenMP, SPMD lowering;
//! * traditional OpenMP forced into generic mode (what LLVM actually did
//!   to the HeCBench stencil, per §4.2.6).
//!
//! ```text
//! cargo run --example stencil_heat
//! ```

use ompx::prelude::*;
use ompx_hostrt::{OpenMp, QuirkSet};
use ompx_sim::mem::DBuf;

const N: usize = 8_192;
const BLOCK: usize = 128;
const STEPS: usize = 50;

fn init_rod(omp: &OpenMp) -> (DBuf<f64>, DBuf<f64>) {
    let mut rod = vec![0.0f64; N];
    rod[0] = 100.0;
    rod[N - 1] = 100.0;
    (omp.device().alloc_from(&rod), omp.device().alloc_from(&rod))
}

fn diffuse_body(tc: &mut ThreadCtx<'_>, input: &DBuf<f64>, output: &DBuf<f64>, i: usize) {
    if i == 0 || i == N - 1 {
        tc.write(output, i, 100.0); // fixed boundary condition
        return;
    }
    let l = tc.read(input, i - 1);
    let c = tc.read(input, i);
    let r = tc.read(input, i + 1);
    tc.flops(4);
    tc.write(output, i, c + 0.25 * (l - 2.0 * c + r));
}

/// The ompx_bare version: shared tile + block barrier, in phased form.
/// The CUDA-style body splits at its one `ompx_sync_thread_block`: phase 0
/// stages the tile and halos and ends with `Step::Barrier`; phase 1
/// computes from the tile. Every lane of a team finishes phase 0 before
/// any lane starts phase 1 — exactly what the barrier guarantees.
fn run_bare(omp: &OpenMp) -> (Vec<f64>, f64) {
    let (mut a, mut b) = init_rod(omp);
    let mut modeled = 0.0;
    for _ in 0..STEPS {
        let mut target = BareTarget::new(omp, "heat_bare")
            .num_teams([(N / BLOCK) as u32])
            .thread_limit([BLOCK as u32]);
        let tile = target.shared_array::<f64>(BLOCK + 2);
        let r = target
            .launch_phased({
                let (input, output) = (a.clone(), b.clone());
                move |tc, phase, _: &mut ()| {
                    let t = tc.thread_rank();
                    let i = ompx_block_id_x(tc) * BLOCK + t;
                    let tl = tc.shared::<f64>(tile);
                    if phase == 0 {
                        // Stage interior + halos (clamped).
                        let v = tc.read(&input, i.min(N - 1));
                        tc.swrite(&tl, t + 1, v);
                        if t == 0 {
                            let left = i.saturating_sub(1);
                            let v = tc.read(&input, left);
                            tc.swrite(&tl, 0, v);
                            let right = (ompx_block_id_x(tc) * BLOCK + BLOCK).min(N - 1);
                            let v = tc.read(&input, right);
                            tc.swrite(&tl, BLOCK + 1, v);
                        }
                        return Step::Barrier; // ompx_sync_thread_block()
                    }
                    if i == 0 || i == N - 1 {
                        tc.write(&output, i, 100.0);
                    } else if i < N {
                        let l = tc.sread(&tl, t);
                        let c = tc.sread(&tl, t + 1);
                        let r = tc.sread(&tl, t + 2);
                        tc.flops(4);
                        tc.write(&output, i, c + 0.25 * (l - 2.0 * c + r));
                    }
                    Step::Exit
                }
            })
            .expect("bare heat step");
        modeled += r.modeled.seconds;
        std::mem::swap(&mut a, &mut b);
    }
    (a.to_vec(), modeled)
}

/// The traditional OpenMP version; `kernel_name` picks the quirk (and thus
/// the execution mode).
fn run_omp(omp: &OpenMp, kernel_name: &str) -> (Vec<f64>, f64, &'static str) {
    let (mut a, mut b) = init_rod(omp);
    let mut modeled = 0.0;
    let mut mode = "?";
    for _ in 0..STEPS {
        let r = omp
            .target(kernel_name)
            .num_teams((N / BLOCK) as u32)
            .thread_limit(BLOCK as u32)
            .run_distribute_parallel_for(N, {
                let (input, output) = (a.clone(), b.clone());
                move |tc, i, _s| diffuse_body(tc, &input, &output, i)
            })
            .expect("omp heat step");
        modeled += r.modeled.seconds;
        mode = r.plan.mode.label();
        std::mem::swap(&mut a, &mut b);
    }
    (a.to_vec(), modeled, mode)
}

fn main() {
    println!("stencil_heat: {N}-cell rod, {STEPS} diffusion steps\n");

    let ompx_rt = ompx::runtime_nvidia();
    let (heat_bare, t_bare) = run_bare(&ompx_rt);

    let omp_rt = OpenMp::nvidia_system();
    let (heat_spmd, t_spmd, m_spmd) = run_omp(&omp_rt, "heat_plain");
    omp_rt.quirks().set("heat_generic", QuirkSet { force_generic: true, ..Default::default() });
    let (heat_gen, t_gen, m_gen) = run_omp(&omp_rt, "heat_generic");

    // Physics agreement (the tile staging is bit-identical to direct reads).
    assert_eq!(heat_bare, heat_spmd);
    assert_eq!(heat_bare, heat_gen);

    // Physics sanity: heat flows inward, profile is symmetric.
    assert_eq!(heat_bare[0], 100.0);
    assert!(heat_bare[1] > heat_bare[N / 4]);
    assert!((heat_bare[10] - heat_bare[N - 11]).abs() < 1e-9);
    println!(
        "temperature profile: end={:.2}  x=8: {:.4}  centre={:.6}",
        heat_bare[0],
        heat_bare[8],
        heat_bare[N / 2]
    );

    println!("\nmodeled totals for {STEPS} steps:");
    println!("  ompx_bare (shared tile):     {:9.1} us", t_bare * 1e6);
    println!("  omp, {m_spmd} lowering:          {:9.1} us", t_spmd * 1e6);
    println!("  omp, {m_gen} lowering:       {:9.1} us", t_gen * 1e6);
    println!(
        "\ngeneric-mode state machine costs {:.1}x over bare — the Section 4.2.6 pathology.",
        t_gen / t_bare
    );
    assert!(t_gen > t_spmd && t_spmd > t_bare);
}
