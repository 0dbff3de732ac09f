//! Grouping a window's members by key: the Invoke Mapper's one decision
//! (paper §III-B), which members of a dispatch window form a group and in
//! what order the groups go out. The simulator's `InvokeMapper`, Kraken's
//! rounds and the live window queue all group through [`WindowGroups`].

/// One window's members grouped by a dense key (a registry index): groups
/// come out in ascending key order, members in push order. A key → slot
/// `Vec` kept across windows stands in for a map built per window; closing
/// a window resets only the slots it touched and sorts its groups once.
///
/// # Examples
///
/// ```
/// use faasbatch_simcore::group::WindowGroups;
///
/// let mut groups = WindowGroups::default();
/// for (key, member) in [(7, 'a'), (2, 'b'), (7, 'c')] {
///     groups.push(key, member);
/// }
/// let window = groups.close(|window| window.clone());
/// assert_eq!(window, vec![(2, vec!['b']), (7, vec!['a', 'c'])]);
/// assert!(groups.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct WindowGroups<M> {
    /// Each key's slot in `groups` (`u32::MAX` for a key this window has
    /// not seen). Kept across windows with its length.
    slots: Vec<u32>,
    /// The open window's groups, in the order their keys first arrived.
    groups: Vec<(usize, Vec<M>)>,
}

impl<M> Default for WindowGroups<M> {
    fn default() -> Self {
        WindowGroups {
            slots: Vec::new(),
            groups: Vec::new(),
        }
    }
}

impl<M> WindowGroups<M> {
    /// True when nothing was pushed since the last [`close`](Self::close).
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Adds `member` to the open window's group for `key`.
    pub fn push(&mut self, key: usize, member: M) {
        if key >= self.slots.len() {
            self.slots.resize(key + 1, u32::MAX);
        }
        match self.slots[key] {
            u32::MAX => {
                self.slots[key] = self.groups.len() as u32;
                self.groups.push((key, vec![member]));
            }
            slot => self.groups[slot as usize].1.push(member),
        }
    }

    /// Closes the window: lends its `(key, members)` groups to `lend`, in
    /// ascending key order with members in push order, then drops whatever
    /// `lend` left in them. The next push opens a new window.
    pub fn close<R>(&mut self, lend: impl FnOnce(&mut Vec<(usize, Vec<M>)>) -> R) -> R {
        // Only the slots this window touched are reset: a stale one would
        // merge the next window's members into a group of this one.
        for &(key, _) in &self.groups {
            self.slots[key] = u32::MAX;
        }
        // One group per key, so the unstable sort is exact.
        self.groups.sort_unstable_by_key(|&(key, _)| key);
        let lent = lend(&mut self.groups);
        self.groups.clear();
        lent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;
    use std::collections::BTreeMap;

    /// Consecutive seeded windows of 0–200 pushes over 24 keys drawn from
    /// 0–5,000, against a `BTreeMap` grouping of the same pushes: the same
    /// `(key, members)` groups in the same order, window after window. A
    /// slot left stale by one window merges the next window's members into
    /// a group of the wrong window.
    #[test]
    fn dense_groups_match_a_btreemap_over_consecutive_windows() {
        for seed in 0..32 {
            let mut rng = DetRng::new(seed);
            let keys: Vec<usize> = (0..24)
                .map(|_| rng.uniform_u64(0, 5_000) as usize)
                .collect();
            let mut groups = WindowGroups::default();
            let mut next = 0u64;
            for window in 0..16 {
                let mut reference: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
                for _ in 0..rng.uniform_u64(0, 200) {
                    let key = keys[rng.uniform_u64(0, keys.len() as u64) as usize];
                    groups.push(key, next);
                    reference.entry(key).or_default().push(next);
                    next += 1;
                }
                assert_eq!(groups.is_empty(), reference.is_empty());
                let closed = groups.close(std::mem::take);
                assert_eq!(
                    closed,
                    reference.into_iter().collect::<Vec<_>>(),
                    "seed {seed}, window {window}"
                );
                assert!(groups.is_empty());
            }
        }
    }
}
