//! Metamorphic relations between simulator runs: pairs of configurations
//! that must produce the same [`SimRun`], bit for bit. Each row of the
//! table derives both sides of its relation from one case; the table runs
//! every row over the committed corpus plus a band of generated cases.

use hybridcast_core::config::AssignmentStrategy;
use hybridcast_core::prelude::{ChannelLayout, FaultSpec, NullSink, SimRun};
use hybridcast_testkit::{committed_corpus_dir, generate_case, load_corpus, FuzzCase};

/// Runs `case` as the harness does (adaptive block, faults, queue audit).
fn run(case: &FuzzCase) -> SimRun {
    let (scenario, params) = (case.scenario.build(), case.params());
    case.simulation(&scenario, &params).run(&mut NullSink)
}

/// `case` on `channels`, everything else kept.
fn on(case: &FuzzCase, channels: ChannelLayout) -> FuzzCase {
    let mut out = case.clone();
    out.hybrid.channels = channels;
    out
}

/// `case` on `channels` with its cutoff held still: no adaptive control,
/// no forced cutoff moves.
fn static_on(case: &FuzzCase, channels: ChannelLayout) -> FuzzCase {
    let mut out = on(case, channels);
    out.adaptive = None;
    out.faults
        .retain(|f| !matches!(f, FaultSpec::ForceCutoff { .. }));
    out
}

/// One relation: the pairs of cases, derived from one case, whose runs
/// must be equal.
type Relation = fn(&FuzzCase) -> Vec<(FuzzCase, FuzzCase)>;

const RELATIONS: [(&str, Relation); 3] = [
    // One sharded channel is the paper's interleaved channel: same RNG
    // draws, same schedule, same census, under every assignment strategy.
    ("sharded C = 1 equals interleaved", |case| {
        let interleaved = on(case, ChannelLayout::Interleaved);
        [
            AssignmentStrategy::Range,
            AssignmentStrategy::Hash,
            AssignmentStrategy::PatternAware,
        ]
        .map(|assignment| {
            let sharded = on(
                case,
                ChannelLayout::Sharded {
                    channels: 1,
                    assignment,
                },
            );
            (interleaved.clone(), sharded)
        })
        .into()
    }),
    // A cutoff move to the cutoff already in force changes nothing, at
    // boot or mid-run, on either kind of broadcast transmitter.
    ("forcing the current K is no move", |case| {
        [
            ChannelLayout::Interleaved,
            ChannelLayout::Split { pull_channels: 2 },
        ]
        .map(|channels| {
            let still = static_on(case, channels);
            let mut forced = still.clone();
            let k = case.hybrid.cutoff;
            forced.faults.extend([
                FaultSpec::ForceCutoff { time: 0.0, k },
                FaultSpec::ForceCutoff {
                    time: case.horizon / 3.0,
                    k,
                },
            ]);
            (still, forced)
        })
        .into()
    }),
    // With nothing to push, a dedicated broadcast channel stays silent and
    // one dedicated pull channel is the interleaved channel.
    ("split(1) at K = 0 equals interleaved at K = 0", |case| {
        let mut pure_pull = case.clone();
        pure_pull.hybrid.cutoff = 0;
        vec![(
            static_on(&pure_pull, ChannelLayout::Interleaved),
            static_on(&pure_pull, ChannelLayout::Split { pull_channels: 1 }),
        )]
    }),
];

#[test]
fn relation_table_holds_on_the_corpus_and_generated_cases() {
    let corpus = load_corpus(&committed_corpus_dir()).expect("corpus must load");
    let generated = (100..140).map(|seed| (format!("generated-{seed}"), generate_case(seed)));
    let cases: Vec<(String, FuzzCase)> = corpus.into_iter().chain(generated).collect();
    for (relation, pairs_of) in RELATIONS {
        for (name, case) in &cases {
            for (i, (lhs, rhs)) in pairs_of(case).iter().enumerate() {
                assert!(
                    run(lhs) == run(rhs),
                    "{relation}: case {name} (seed {}), pair {i}: {:?} vs {:?}",
                    case.seed,
                    lhs.hybrid.channels,
                    rhs.hybrid.channels,
                );
            }
        }
    }
}
