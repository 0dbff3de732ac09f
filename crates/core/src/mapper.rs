//! The Invoke Mapper (paper §III-B).
//!
//! The mapper listens to the request queue for a fixed time window (default
//! 0.2 s) and classifies everything that arrived into *function groups* —
//! all concurrent invocations of an identical function — so each group can
//! be placed into a **single** container instead of one container per
//! invocation. The grouping itself is [`WindowGroups`], the one the live
//! window queue and Kraken's rounds use too; what the mapper adds is the
//! optional cap on a group's size.

use faasbatch_container::ids::FunctionId;
use faasbatch_simcore::group::WindowGroups;
use faasbatch_simcore::time::SimDuration;
use faasbatch_trace::workload::Invocation;

/// All invocations of one function observed within one dispatch window.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionGroup {
    /// The shared function.
    pub function: FunctionId,
    /// The grouped invocations, in arrival order.
    pub invocations: Vec<Invocation>,
}

impl FunctionGroup {
    /// Number of invocations in the group.
    pub fn len(&self) -> usize {
        self.invocations.len()
    }

    /// True when the group is empty (never produced by the mapper).
    pub fn is_empty(&self) -> bool {
        self.invocations.is_empty()
    }
}

/// Groups concurrent invocations by function across a dispatch window.
///
/// # Examples
///
/// ```
/// use faasbatch_core::mapper::InvokeMapper;
/// use faasbatch_container::ids::{FunctionId, InvocationId};
/// use faasbatch_simcore::time::{SimDuration, SimTime};
/// use faasbatch_trace::workload::Invocation;
///
/// let mut mapper = InvokeMapper::new(SimDuration::from_millis(200));
/// for n in 0..3 {
///     mapper.observe(Invocation {
///         id: InvocationId::new(n),
///         function: FunctionId::new(0),
///         arrival: SimTime::ZERO,
///         work: SimDuration::from_millis(10),
///     });
/// }
/// let groups = mapper.drain();
/// assert_eq!(groups.len(), 1);
/// assert_eq!(groups[0].len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct InvokeMapper {
    window: SimDuration,
    /// The open window's invocations, grouped by function index.
    pending: WindowGroups<Invocation>,
    /// Optional cap on group size (None = the paper's stuff-everything
    /// strategy).
    max_group: Option<usize>,
}

impl InvokeMapper {
    /// The paper's default dispatch window.
    pub const DEFAULT_WINDOW: SimDuration = SimDuration::from_millis(200);

    /// Creates a mapper with the given dispatch window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        InvokeMapper {
            window,
            pending: WindowGroups::default(),
            max_group: None,
        }
    }

    /// Caps group sizes (an ablation knob; the paper batches everything).
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero.
    pub fn with_max_group(mut self, max: usize) -> Self {
        assert!(max > 0, "max group must be positive");
        self.max_group = Some(max);
        self
    }

    /// The dispatch window.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Buffers one arriving invocation into its function's group.
    pub fn observe(&mut self, invocation: Invocation) {
        self.pending
            .push(invocation.function.index() as usize, invocation);
    }

    /// Closes the window: returns every non-empty function group, in
    /// ascending function order with invocations in arrival order (split
    /// into consecutive runs of at most the group cap, if one is set), and
    /// resets the buffers.
    pub fn drain(&mut self) -> Vec<FunctionGroup> {
        let cap = self.max_group.unwrap_or(usize::MAX);
        self.pending.close(|window| {
            let mut out = Vec::with_capacity(window.len());
            for (function, mut invocations) in window.drain(..) {
                let function = FunctionId::new(function as u32);
                while invocations.len() > cap {
                    let rest = invocations.split_off(cap);
                    out.push(FunctionGroup {
                        function,
                        invocations,
                    });
                    invocations = rest;
                }
                out.push(FunctionGroup {
                    function,
                    invocations,
                });
            }
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasbatch_container::ids::InvocationId;
    use faasbatch_simcore::rng::DetRng;
    use faasbatch_simcore::time::SimTime;
    use std::collections::BTreeMap;

    fn inv(n: u64, f: u32) -> Invocation {
        Invocation {
            id: InvocationId::new(n),
            function: FunctionId::new(f),
            arrival: SimTime::from_millis(n),
            work: SimDuration::from_millis(1),
        }
    }

    #[test]
    fn groups_by_function() {
        let mut m = InvokeMapper::new(InvokeMapper::DEFAULT_WINDOW);
        m.observe(inv(0, 0));
        m.observe(inv(1, 1));
        m.observe(inv(2, 0));
        let groups = m.drain();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].function, FunctionId::new(0));
        assert_eq!(groups[0].len(), 2);
        assert_eq!(groups[1].function, FunctionId::new(1));
        assert_eq!(groups[1].len(), 1);
        assert!(m.drain().is_empty());
    }

    #[test]
    fn groups_never_mix_functions() {
        let mut m = InvokeMapper::new(InvokeMapper::DEFAULT_WINDOW);
        for n in 0..20 {
            m.observe(inv(n, (n % 3) as u32));
        }
        for g in m.drain() {
            assert!(g.invocations.iter().all(|i| i.function == g.function));
        }
    }

    #[test]
    fn drain_preserves_arrival_order_within_group() {
        let mut m = InvokeMapper::new(InvokeMapper::DEFAULT_WINDOW);
        for n in 0..5 {
            m.observe(inv(n, 0));
        }
        let groups = m.drain();
        let ids: Vec<u64> = groups[0].invocations.iter().map(|i| i.id.value()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_drain_is_empty() {
        let mut m = InvokeMapper::new(InvokeMapper::DEFAULT_WINDOW);
        assert!(m.drain().is_empty());
    }

    #[test]
    fn max_group_splits() {
        let mut m = InvokeMapper::new(InvokeMapper::DEFAULT_WINDOW).with_max_group(4);
        for n in 0..10 {
            m.observe(inv(n, 0));
        }
        let groups = m.drain();
        assert_eq!(groups.len(), 3);
        assert_eq!(
            groups.iter().map(FunctionGroup::len).collect::<Vec<_>>(),
            vec![4, 4, 2]
        );
        // Order preserved across the split.
        let ids: Vec<u64> = groups
            .iter()
            .flat_map(|g| g.invocations.iter().map(|i| i.id.value()))
            .collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    /// Consecutive seeded windows over sparse function ids (up to ~5,000),
    /// with and without a cap, against the mapper as it was: a `BTreeMap`
    /// per window, each function's invocations split into consecutive runs
    /// of at most the cap. The same groups in the same order, window after
    /// window.
    #[test]
    fn capped_drains_match_a_btreemap_then_split_reference() {
        for seed in 0..32 {
            let mut rng = DetRng::new(seed);
            let cap = match seed % 4 {
                0 => None,
                _ => Some(rng.uniform_u64(1, 9) as usize),
            };
            let functions: Vec<u32> = (0..16).map(|_| rng.uniform_u64(0, 5_000) as u32).collect();
            let mut m = InvokeMapper::new(InvokeMapper::DEFAULT_WINDOW);
            if let Some(cap) = cap {
                m = m.with_max_group(cap);
            }
            let mut next = 0;
            for window in 0..12 {
                let mut reference: BTreeMap<FunctionId, Vec<Invocation>> = BTreeMap::new();
                for _ in 0..rng.uniform_u64(0, 120) {
                    let f = functions[rng.uniform_u64(0, functions.len() as u64) as usize];
                    m.observe(inv(next, f));
                    reference
                        .entry(FunctionId::new(f))
                        .or_default()
                        .push(inv(next, f));
                    next += 1;
                }
                let expected: Vec<FunctionGroup> = reference
                    .into_iter()
                    .flat_map(|(function, invocations)| {
                        invocations
                            .chunks(cap.unwrap_or(usize::MAX))
                            .map(|chunk| FunctionGroup {
                                function,
                                invocations: chunk.to_vec(),
                            })
                            .collect::<Vec<_>>()
                    })
                    .collect();
                assert_eq!(
                    m.drain(),
                    expected,
                    "seed {seed}, cap {cap:?}, window {window}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        InvokeMapper::new(SimDuration::ZERO);
    }
}
