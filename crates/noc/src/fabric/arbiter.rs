//! Round-robin arbitration as a reusable value.

use flumen_sim::{FromJson, Json, JsonError, ToJson};

/// A rotating round-robin token over `n` requesters.
///
/// Two idioms are supported, matching the two hand-written fabrics:
///
/// * **grant-rotate** (optical bus): scan from the token, grant the first
///   requester, then park the token just past the winner
///   ([`RrToken::grant`]).
/// * **cycle-rotate** (routed networks): scan all ports from the token
///   each cycle, then advance the token by one regardless of grants
///   ([`RrToken::rotate`]).
///
/// Serializes as its raw position (a JSON number), byte-identical to the
/// bare `usize` fields it replaced in the legacy fabrics' checkpoints.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RrToken {
    pos: usize,
}

impl RrToken {
    /// A token starting at position 0.
    pub fn new() -> Self {
        RrToken::default()
    }

    /// Current token position.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Forces the token position (checkpoint restore).
    pub fn set_pos(&mut self, pos: usize) {
        self.pos = pos;
    }

    /// Indices `pos, pos+1, …` wrapping over `n` requesters — the fair
    /// scan order for this cycle. Empty when `n == 0`.
    pub fn scan(&self, n: usize) -> impl Iterator<Item = usize> {
        let pos = self.pos;
        (0..n).map(move |k| (pos + k) % n)
    }

    /// Parks the token just past `winner` (grant-rotate idiom).
    pub fn grant(&mut self, winner: usize, n: usize) {
        self.pos = match n {
            0 => 0,
            _ => (winner + 1) % n,
        };
    }

    /// Advances the token by one position (cycle-rotate idiom).
    pub fn rotate(&mut self, n: usize) {
        self.pos = match n {
            0 => 0,
            _ => (self.pos + 1) % n,
        };
    }

    /// Advances the token by `k` positions: `k` calls to
    /// [`RrToken::rotate`] at once.
    pub fn rotate_by(&mut self, k: u64, n: usize) {
        self.pos = match (k, n) {
            (0, _) => self.pos,
            (_, 0) => 0,
            _ => ((self.pos as u64 + k % n as u64) % n as u64) as usize,
        };
    }
}

impl ToJson for RrToken {
    fn to_json(&self) -> Json {
        self.pos.to_json()
    }
}

impl FromJson for RrToken {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(RrToken {
            pos: usize::from_json(j)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_starts_at_token() {
        let mut t = RrToken::new();
        t.set_pos(2);
        assert_eq!(t.scan(4).collect::<Vec<_>>(), vec![2, 3, 0, 1]);
        assert_eq!(t.scan(0).count(), 0);
    }

    #[test]
    fn grant_parks_past_winner() {
        let mut t = RrToken::new();
        t.grant(3, 4);
        assert_eq!(t.pos(), 0);
        t.grant(1, 4);
        assert_eq!(t.pos(), 2);
    }

    #[test]
    fn rotate_advances_by_one() {
        let mut t = RrToken::new();
        t.rotate(3);
        t.rotate(3);
        t.rotate(3);
        assert_eq!(t.pos(), 0);
    }

    #[test]
    fn rotate_by_matches_repeated_rotate() {
        for n in 0..6 {
            for k in 0..13u64 {
                let (mut a, mut b) = (RrToken::new(), RrToken::new());
                a.set_pos(4);
                b.set_pos(4);
                a.rotate_by(k, n);
                for _ in 0..k {
                    b.rotate(n);
                }
                assert_eq!(a, b, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn json_matches_bare_usize() {
        let mut t = RrToken::new();
        t.set_pos(5);
        assert_eq!(t.to_json().to_canonical(), 5usize.to_json().to_canonical());
        assert_eq!(RrToken::from_json(&t.to_json()).unwrap().pos(), 5);
    }
}
