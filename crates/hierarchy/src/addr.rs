//! Grid-box addresses and subtree prefixes.
//!
//! A grid box address is a fixed-length string of base-`K` digits (paper
//! §6.1: "each grid box is assigned a unique `(log_K N − 1)`-digit address
//! in base K"). A *prefix* of such an address names a subtree: the set of
//! boxes whose addresses agree with it in the leading digits. The root is
//! the empty prefix (displayed `**…*`), a full-length address is a single
//! grid box.
//!
//! One type, [`Addr`], represents both: `len == depth` means a grid box,
//! `len < depth` a proper subtree. The digit string is stored as the
//! number it spells — `(base, len, index)`, 8 bytes — so [`Addr::index`]
//! is a field read, a prefix or a digit one divide by a power of the
//! base, a containment test one multiply. The `u32` index bounds the
//! capacity: `len <= MAX_DEPTH` **and** `base^len <= u32::MAX`. On the
//! wire an address is its base and one number, [`Addr::code`], which
//! counts the addresses breadth first (see
//! `gridagg_core::message::codec`).

/// Maximum supported address depth (digits). `K^16` boxes at `K = 2` is
/// 65 536 boxes — far beyond the paper's group sizes.
pub const MAX_DEPTH: usize = 16;

/// Errors from address construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddrError {
    /// A digit was `>= base`.
    DigitOutOfRange {
        /// The offending digit value.
        digit: u8,
        /// The base it must be below.
        base: u8,
    },
    /// More than [`MAX_DEPTH`] digits requested, or `base^len` does not
    /// fit the `u32` index.
    TooDeep {
        /// The requested length.
        len: usize,
    },
    /// Base must be at least 2.
    BadBase {
        /// The requested base.
        base: u8,
    },
}

impl std::fmt::Display for AddrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AddrError::DigitOutOfRange { digit, base } => {
                write!(f, "digit {digit} out of range for base {base}")
            }
            AddrError::TooDeep { len } => write!(
                f,
                "address length {len} exceeds capacity (at most {MAX_DEPTH} digits, base^len <= u32::MAX)"
            ),
            AddrError::BadBase { base } => write!(f, "base {base} must be at least 2"),
        }
    }
}

impl std::error::Error for AddrError {}

/// A base-`K` grid box address or subtree prefix (see module docs).
/// Ordered by `(base, len, index)`: shorter prefixes first, then the
/// digit strings' lexicographic order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr {
    base: u8,
    len: u8,
    index: u32,
}

/// `MAX_LEN[base]`: the most digits an address in that base can have —
/// [`MAX_DEPTH`], or fewer where `base^len` would pass `u32::MAX`.
const MAX_LEN: [u8; 256] = {
    let mut table = [0; 256];
    let mut base = 2;
    while base < 256 {
        let fits = u32::MAX.ilog(base as u32) as usize;
        table[base] = if fits < MAX_DEPTH { fits } else { MAX_DEPTH } as u8;
        base += 1;
    }
    table
};

/// Whether an address of `len` digits in `base` exists.
fn check(base: u8, len: usize) -> Result<(), AddrError> {
    if base < 2 {
        return Err(AddrError::BadBase { base });
    }
    if len > MAX_LEN[base as usize] as usize {
        return Err(AddrError::TooDeep { len });
    }
    Ok(())
}

impl Addr {
    /// The root prefix: the whole group (subtree `**…*` in the paper's
    /// figures).
    ///
    /// # Errors
    ///
    /// Returns [`AddrError::BadBase`] for `base < 2`.
    pub fn root(base: u8) -> Result<Self, AddrError> {
        Addr::from_index(base, 0, 0)
    }

    /// Build an address from explicit digits (most significant first).
    ///
    /// ```
    /// use gridagg_hierarchy::Addr;
    ///
    /// let addr = Addr::from_digits(4, &[1, 0, 3])?;
    /// assert_eq!(addr.to_string(), "103");
    /// assert_eq!(addr.index(), 1 * 16 + 0 * 4 + 3);
    /// # Ok::<(), gridagg_hierarchy::AddrError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns an error if the base is `< 2`, the digits exceed the
    /// capacity (see [`AddrError::TooDeep`]), or any digit is `>= base`.
    pub fn from_digits(base: u8, digits: &[u8]) -> Result<Self, AddrError> {
        check(base, digits.len())?;
        let root = Addr::root(base)?;
        digits.iter().try_fold(root, |addr, &d| addr.child(d))
    }

    /// Build a full-length address from a box index in `[0, base^len)`,
    /// most significant digit first (index 0 → `00…0`).
    ///
    /// # Errors
    ///
    /// Returns an error for a bad base or a length beyond the capacity
    /// (see [`AddrError::TooDeep`]).
    ///
    /// # Panics
    ///
    /// Panics if `index >= base^len`.
    pub fn from_index(base: u8, len: usize, index: u64) -> Result<Self, AddrError> {
        check(base, len)?;
        assert!(
            index < (base as u64).pow(len as u32),
            "box index {index} out of range for {base}^{len} boxes"
        );
        Ok(Addr {
            base,
            len: len as u8,
            index: index as u32,
        })
    }

    /// The numeric index of this address among same-length addresses.
    pub fn index(&self) -> u64 {
        self.index as u64
    }

    /// The digit base `K`.
    pub fn base(&self) -> u8 {
        self.base
    }

    /// Number of digits.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` for the root prefix.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `base^e` for `e <= len`: in range because `base^len` is.
    fn pow(&self, e: usize) -> u32 {
        (self.base as u32).pow(e as u32)
    }

    /// The address of `len` digits spelling `index` in this base.
    fn with(&self, len: usize, index: u32) -> Addr {
        let (base, len) = (self.base, len as u8);
        Addr { base, len, index }
    }

    /// This address's number among all addresses of its base, breadth
    /// first: the root is 0, then the `base` one-digit addresses, then
    /// the two-digit ones, each length in index order. That is
    /// `(base^len − 1) / (base − 1) + index`, one number for the length
    /// and the digits, and the wire writes an address as its base and
    /// this code (see `gridagg_core::message::codec`). The capacity keeps
    /// every code in a `u32`: the largest, 4,244,897,280, is base 255's
    /// last four-digit address, and [`MAX_DEPTH`] stops base 3 at 16
    /// digits, where 20 would pass `u32::MAX`.
    pub fn code(&self) -> u32 {
        // the addresses shorter than this one, then its index
        (self.pow(self.len()) - 1) / (self.base as u32 - 1) + self.index
    }

    /// The address whose [`Addr::code`] in `base` is `code`: the inverse
    /// of [`Addr::code`].
    ///
    /// # Errors
    ///
    /// Returns [`AddrError::BadBase`] for `base < 2`, and
    /// [`AddrError::TooDeep`] for a code past the last address the base
    /// holds.
    pub fn from_code(base: u8, code: u32) -> Result<Self, AddrError> {
        check(base, 0)?;
        // skip whole lengths: `width` addresses have `len` digits
        let (mut len, mut index, mut width) = (0, u64::from(code), 1u64);
        while index >= width {
            index -= width;
            width *= u64::from(base);
            len += 1;
            check(base, len)?;
        }
        // below `width`, which is `base^len` and fits the index
        let index = index as u32;
        Ok(Addr {
            base,
            len: len as u8,
            index,
        })
    }

    /// The digits, most significant first.
    pub fn digits(&self) -> impl Iterator<Item = u8> {
        let (base, mut rest) = (self.base as u32, self.index);
        let mut digits = [0u8; MAX_DEPTH];
        for digit in digits[..self.len()].iter_mut().rev() {
            (*digit, rest) = ((rest % base) as u8, rest / base);
        }
        digits.into_iter().take(self.len())
    }

    /// The digit at position `i` (0 = most significant).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn digit(&self, i: usize) -> u8 {
        assert!(i < self.len(), "digit index {i} out of range");
        (self.index / self.pow(self.len() - 1 - i) % self.base as u32) as u8
    }

    /// The prefix consisting of the first `len` digits.
    ///
    /// # Panics
    ///
    /// Panics if `len > self.len()`.
    pub fn prefix(&self, len: usize) -> Addr {
        assert!(len <= self.len(), "prefix longer than address");
        self.with(len, self.index / self.pow(self.len() - len))
    }

    /// The parent subtree and the last digit — the inverse of
    /// [`Addr::child`] — or `None` at the root.
    pub fn split_last(&self) -> Option<(Addr, u8)> {
        let (len, base) = (self.len().checked_sub(1)?, self.base as u32);
        Some((self.with(len, self.index / base), (self.index % base) as u8))
    }

    /// The parent subtree (one digit shorter), or `None` at the root.
    pub fn parent(&self) -> Option<Addr> {
        self.split_last().map(|(parent, _)| parent)
    }

    /// Whether this prefix contains `other` (i.e. `other` starts with it
    /// and uses the same base). A prefix contains itself.
    pub fn contains(&self, other: &Addr) -> bool {
        if self.base != other.base || self.len > other.len {
            return false;
        }
        // the subtree is the index range [index·w, (index + 1)·w) at
        // `other`'s length; the upper bound is at most base^other.len
        let w = other.pow(other.len() - self.len());
        other.index.wrapping_sub(self.index * w) < w
    }

    /// Whether this prefix is a *proper* ancestor of `other`: it
    /// contains `other` and is shorter. For a member's grid box, these
    /// are the prefixes whose children the member gossips and stores.
    #[inline]
    pub fn is_proper_prefix_of(&self, other: &Addr) -> bool {
        self.len < other.len && self.contains(other)
    }

    /// The child prefix obtained by appending `digit`.
    ///
    /// # Errors
    ///
    /// Returns an error if the digit is out of range or the child would
    /// exceed the capacity (see [`AddrError::TooDeep`]).
    pub fn child(&self, digit: u8) -> Result<Addr, AddrError> {
        if digit >= self.base {
            return Err(AddrError::DigitOutOfRange {
                digit,
                base: self.base,
            });
        }
        check(self.base, self.len() + 1)?;
        Ok(self.with(self.len() + 1, self.index * self.base as u32 + digit as u32))
    }

    /// Iterate over the `K` children of this prefix.
    pub fn children(&self) -> impl Iterator<Item = Addr> + '_ {
        (0..self.base).map(move |d| self.child(d).expect("child digit in range"))
    }

    /// Format with the given total depth, padding with `*` for the
    /// unconstrained digits, exactly like the paper's figures (`0*`, `**`).
    pub fn display_depth(&self, depth: usize) -> String {
        // digits are < base <= 36; render 0-9 then a-z
        let mut s: String = self
            .digits()
            .take(depth)
            .map(|d| char::from_digit(d as u32, 36).unwrap_or('?'))
            .collect();
        while s.len() < depth.max(1) {
            s.push('*');
        }
        s
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.display_depth(self.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_digits_and_back() {
        let a = Addr::from_digits(4, &[1, 0, 3]).unwrap();
        assert_eq!(a.digits().collect::<Vec<_>>(), [1, 0, 3]);
        assert_eq!(a.len(), 3);
        assert_eq!(a.base(), 4);
        assert_eq!(a.to_string(), "103");
    }

    #[test]
    fn digit_validation() {
        assert_eq!(
            Addr::from_digits(2, &[0, 2]),
            Err(AddrError::DigitOutOfRange { digit: 2, base: 2 })
        );
        assert_eq!(
            Addr::from_digits(1, &[0]),
            Err(AddrError::BadBase { base: 1 })
        );
        assert_eq!(
            Addr::from_digits(2, &[0; 17]),
            Err(AddrError::TooDeep { len: 17 })
        );
    }

    #[test]
    fn capacity_overflow_is_an_error_not_a_panic() {
        // 255^4 fits a u32, 255^5 does not; 16^8 is exactly 2^32
        assert!(Addr::from_index(255, 4, 255u64.pow(4) - 1).is_ok());
        assert_eq!(
            Addr::from_index(255, 5, 0),
            Err(AddrError::TooDeep { len: 5 })
        );
        assert_eq!(
            Addr::from_index(16, 8, 0),
            Err(AddrError::TooDeep { len: 8 })
        );
        assert_eq!(
            Addr::from_digits(255, &[254; 16]),
            Err(AddrError::TooDeep { len: 16 })
        );
        let widest = Addr::from_digits(255, &[254; 4]).unwrap();
        assert_eq!(widest.index(), 255u64.pow(4) - 1);
        assert_eq!(widest.child(0), Err(AddrError::TooDeep { len: 5 }));
        assert_eq!(
            Addr::from_index(2, 17, 0),
            Err(AddrError::TooDeep { len: 17 })
        );
        // every base: a shape exists exactly when base^len fits
        for base in 2..=255u8 {
            for len in 0..=MAX_DEPTH + 1 {
                let fits = len <= MAX_DEPTH && (base as u128).pow(len as u32) <= u32::MAX as u128;
                assert_eq!(Addr::from_index(base, len, 0).is_ok(), fits, "{base}^{len}");
            }
        }
    }

    #[test]
    fn codes_count_addresses_breadth_first_up_to_capacity() {
        let code = |base, digits: &[u8]| Addr::from_digits(base, digits).unwrap().code();
        assert_eq!(code(4, &[]), 0);
        assert_eq!(code(4, &[3]), 4);
        assert_eq!(code(4, &[0, 0]), 5);
        assert_eq!(code(4, &[2, 1]), 5 + 9);
        for base in 2..=255u8 {
            // the last address of each length, then the first of the next
            let max_len = MAX_LEN[usize::from(base)] as usize;
            let mut next = 0;
            for len in 0..=max_len {
                let first = Addr::from_index(base, len, 0).unwrap();
                let last = (base as u64).pow(len as u32) - 1;
                let last = Addr::from_index(base, len, last).unwrap();
                assert_eq!(first.code(), next, "{base}^{len}");
                for addr in [first, last] {
                    assert_eq!(Addr::from_code(base, addr.code()), Ok(addr));
                }
                next = last.code().checked_add(1).expect("a code past the last");
            }
            let past = Err(AddrError::TooDeep { len: max_len + 1 });
            assert_eq!(Addr::from_code(base, next), past, "base {base}");
            assert_eq!(Addr::from_code(base, u32::MAX), past, "base {base}");
        }
        let widest = Addr::from_digits(255, &[254; 4]).unwrap();
        assert_eq!(widest.code(), 4_244_897_280);
        assert_eq!(Addr::from_code(1, 0), Err(AddrError::BadBase { base: 1 }));
    }

    #[test]
    fn addr_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<Addr>(), 8);
    }

    #[test]
    fn index_roundtrip() {
        for base in [2u8, 3, 4, 8] {
            let len = 3usize;
            let boxes = (base as u64).pow(len as u32);
            for idx in 0..boxes {
                let a = Addr::from_index(base, len, idx).unwrap();
                assert_eq!(a.index(), idx, "base {base} idx {idx}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_index_checks_capacity() {
        let _ = Addr::from_index(2, 2, 4);
    }

    #[test]
    fn paper_figure_1_addresses() {
        // 4 grid boxes, base 2, two digits: 00 01 10 11
        let boxes: Vec<String> = (0..4)
            .map(|i| Addr::from_index(2, 2, i).unwrap().to_string())
            .collect();
        assert_eq!(boxes, ["00", "01", "10", "11"]);
    }

    #[test]
    fn prefix_parent_contains() {
        let a = Addr::from_digits(2, &[1, 0]).unwrap();
        let p = a.prefix(1);
        assert_eq!(p.to_string(), "1");
        assert!(p.contains(&a));
        assert!(!a.contains(&p));
        assert!(a.contains(&a));
        let root = a.prefix(0);
        assert!(root.is_empty());
        assert!(root.contains(&a));
        assert_eq!(a.parent(), Some(p));
        assert_eq!(root.parent(), None);
    }

    #[test]
    fn contains_requires_same_base() {
        let a2 = Addr::from_digits(2, &[1]).unwrap();
        let a4 = Addr::from_digits(4, &[1]).unwrap();
        assert!(!a2.contains(&a4));
    }

    #[test]
    fn children_enumerate_base() {
        let p = Addr::from_digits(4, &[2]).unwrap();
        let kids: Vec<String> = p.children().map(|c| c.to_string()).collect();
        assert_eq!(kids, ["20", "21", "22", "23"]);
        for c in p.children() {
            assert!(p.contains(&c));
            assert_eq!(c.parent(), Some(p));
        }
    }

    #[test]
    fn child_validation() {
        let p = Addr::from_digits(2, &[0]).unwrap();
        assert!(p.child(2).is_err());
        let deep = Addr::from_digits(2, &[0; 16]).unwrap();
        assert_eq!(deep.child(1), Err(AddrError::TooDeep { len: 17 }));
    }

    #[test]
    fn display_depth_matches_paper_star_notation() {
        let h = Addr::from_digits(2, &[0]).unwrap();
        assert_eq!(h.display_depth(2), "0*");
        let root = Addr::root(2).unwrap();
        assert_eq!(root.display_depth(2), "**");
        assert_eq!(root.display_depth(0), "*");
        let full = Addr::from_digits(2, &[1, 1]).unwrap();
        assert_eq!(full.display_depth(2), "11");
    }

    #[test]
    fn ordering_is_lexicographic_within_len() {
        let a = Addr::from_digits(2, &[0, 1]).unwrap();
        let b = Addr::from_digits(2, &[1, 0]).unwrap();
        assert!(a < b);
    }

    #[test]
    fn digit_accessor_panics_out_of_range() {
        let a = Addr::from_digits(2, &[1]).unwrap();
        assert_eq!(a.digit(0), 1);
        let r = std::panic::catch_unwind(|| a.digit(1));
        assert!(r.is_err());
    }

    #[test]
    fn error_display() {
        assert!(AddrError::BadBase { base: 1 }
            .to_string()
            .contains("base 1"));
        assert!(AddrError::TooDeep { len: 20 }.to_string().contains("20"));
        assert!(AddrError::DigitOutOfRange { digit: 5, base: 4 }
            .to_string()
            .contains("digit 5"));
    }
}
