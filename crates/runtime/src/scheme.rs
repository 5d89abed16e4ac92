use commsched::{Scheduler, SchedulerKind};

/// The two communication schemes evaluated in Section 6 of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Loose synchrony: for every phased message the receiver posts its
    /// application buffer and sends a 0-byte **ready** signal; the sender
    /// transmits only after the signal, so data always lands directly in
    /// the application buffer (no system-buffer copy). Reciprocal pairs of
    /// a phase are fused into concurrent pairwise exchanges — the iPSC/860
    /// feature LP and RS_NL exploit.
    S1,
    /// Post-everything-then-blast: every node posts all of its receive
    /// buffers up front, issues all of its sends asynchronously in schedule
    /// order, and finally confirms all arrivals. No per-message handshake,
    /// no exchange fusion; the schedule contributes ordering only.
    S2,
}

impl Scheme {
    /// The scheme each algorithm used for the paper's reported numbers:
    /// S1 where the algorithm exploits pairwise bidirectional exchange
    /// (LP, RS_NL), S2 otherwise (AC, RS_N). Registry variants inherit the
    /// scheme of their family.
    pub fn for_scheduler(entry: &dyn Scheduler) -> Scheme {
        match entry.family() {
            SchedulerKind::Lp | SchedulerKind::RsNl => Scheme::S1,
            SchedulerKind::Ac | SchedulerKind::RsN => Scheme::S2,
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::S1 => "S1",
            Scheme::S2 => "S2",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section6() {
        let scheme = |name| Scheme::for_scheduler(commsched::registry::find(name).unwrap());
        assert_eq!(scheme("AC"), Scheme::S2);
        assert_eq!(scheme("LP"), Scheme::S1);
        assert_eq!(scheme("RS_N"), Scheme::S2);
        assert_eq!(scheme("RS_NL"), Scheme::S1);
    }

    #[test]
    fn labels() {
        assert_eq!(Scheme::S1.label(), "S1");
        assert_eq!(Scheme::S2.label(), "S2");
    }

    #[test]
    fn registry_entries_inherit_their_family_scheme() {
        for &entry in commsched::registry::all() {
            assert_eq!(
                Scheme::for_scheduler(entry),
                Scheme::for_scheduler(entry.family().scheduler()),
                "{}",
                entry.name()
            );
        }
        let greedy = commsched::registry::find("GREEDY").unwrap();
        assert_eq!(Scheme::for_scheduler(greedy), Scheme::S2);
    }
}
