//! Every Figure 8 cell runs on the block loop: no HeCBench kernel needs
//! the thread-per-lane team path, barrier-using ones included (they are in
//! phased form). This is the only test in its binary, so the process-wide
//! team-launch count sees no other test's launches.

use ompx_hecbench::{run_app, ProgVersion, System, WorkScale, APP_NAMES};

#[test]
fn no_hecbench_cell_launches_the_team_path() {
    let before = ompx_sim::exec::team_launches();
    for app in APP_NAMES {
        for sys in [System::Nvidia, System::Amd] {
            for version in ProgVersion::all() {
                run_app(app, sys, version, WorkScale::Test);
                assert_eq!(
                    ompx_sim::exec::team_launches(),
                    before,
                    "{app} {} on {} ran on the team path",
                    version.label(sys),
                    sys.label()
                );
            }
        }
    }
}
