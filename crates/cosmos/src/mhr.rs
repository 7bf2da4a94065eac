//! The Message History Register: the first predictor level.
//!
//! An MHR is a shift register of the last `depth` `<sender, type>` tuples
//! received for one cache block (paper §3.2). Its contents — once full —
//! form the key into the block's Pattern History Table.
//!
//! The whole register lives in one `u64`, 16 bits per tuple (see
//! [`crate::packed`] for the lane layout), so a shift is a word operation
//! and the PHT key is the word itself.

use crate::packed::{key_mask, MAX_DEPTH};
use crate::tuple::PredTuple;
use std::fmt;

/// A fixed-depth shift register of packed prediction tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mhr {
    depth: u8,
    len: u8,
    bits: u64,
}

impl Mhr {
    /// Creates an empty register of the given depth. Every Cosmos variant
    /// constructor builds one, so this is the single depth check.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is outside `1..=`[`MAX_DEPTH`]: a depthless
    /// Cosmos has no first level, and the packed layout is one word wide
    /// (the paper evaluates 1–4).
    pub fn new(depth: usize) -> Self {
        assert!(
            (1..=MAX_DEPTH).contains(&depth),
            "MHR depth {depth} outside 1..={MAX_DEPTH}"
        );
        Mhr {
            depth: depth as u8,
            len: 0,
            bits: 0,
        }
    }

    /// The configured depth.
    #[inline]
    pub fn depth(&self) -> usize {
        self.depth as usize
    }

    /// Tuples currently held (0 until warm, then always `depth`).
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no tuple has been shifted in yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `depth` tuples have been received.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len == self.depth
    }

    /// Left-shifts a tuple in (paper §3.4); the oldest tuple falls out once
    /// the register is full.
    #[inline]
    pub fn shift(&mut self, tuple: PredTuple) {
        self.bits = ((self.bits << 16) | u64::from(tuple.pack())) & key_mask(self.depth());
        if self.len < self.depth {
            self.len += 1;
        }
    }

    /// The packed register contents, usable as a PHT key once full.
    #[inline]
    pub fn key(&self) -> Option<u64> {
        self.is_full().then_some(self.bits)
    }

    /// The raw packed word regardless of fill level (low lanes occupied).
    #[inline]
    pub fn raw_bits(&self) -> u64 {
        self.bits
    }

    /// The register contents regardless of fill level (oldest first).
    pub fn contents(&self) -> Vec<PredTuple> {
        (0..self.len())
            .rev()
            .map(|lane| {
                PredTuple::unpack((self.bits >> (16 * lane)) as u16)
                    .expect("lane holds a packed tuple")
            })
            .collect()
    }
}

impl fmt::Display for Mhr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, t) in self.contents().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::pack_key;
    use stache::{MsgType, NodeId};

    fn t(n: usize, m: MsgType) -> PredTuple {
        PredTuple::new(NodeId::new(n), m)
    }

    #[test]
    fn fills_then_shifts() {
        let mut r = Mhr::new(2);
        assert!(!r.is_full());
        assert_eq!(r.key(), None);
        r.shift(t(1, MsgType::GetRoRequest));
        assert!(!r.is_full());
        r.shift(t(2, MsgType::GetRoRequest));
        assert!(r.is_full());
        assert_eq!(
            r.key().unwrap(),
            pack_key(&[t(1, MsgType::GetRoRequest), t(2, MsgType::GetRoRequest)])
        );
        r.shift(t(3, MsgType::UpgradeRequest));
        assert_eq!(
            r.key().unwrap(),
            pack_key(&[t(2, MsgType::GetRoRequest), t(3, MsgType::UpgradeRequest)])
        );
        assert_eq!(r.contents().last(), Some(&t(3, MsgType::UpgradeRequest)));
        assert_eq!(
            r.contents(),
            vec![t(2, MsgType::GetRoRequest), t(3, MsgType::UpgradeRequest)]
        );
    }

    #[test]
    fn depth_one_keeps_only_latest() {
        let mut r = Mhr::new(1);
        r.shift(t(1, MsgType::GetRoRequest));
        r.shift(t(2, MsgType::GetRwRequest));
        assert_eq!(r.key().unwrap(), pack_key(&[t(2, MsgType::GetRwRequest)]));
        assert_eq!(r.depth(), 1);
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn zero_depth_rejected() {
        let _ = Mhr::new(0);
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn over_deep_register_rejected() {
        let _ = Mhr::new(5);
    }

    #[test]
    fn display_shows_tuples() {
        let mut r = Mhr::new(2);
        r.shift(t(1, MsgType::GetRoRequest));
        assert_eq!(r.to_string(), "[<P1, get_ro_request>]");
    }
}
