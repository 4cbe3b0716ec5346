//! [`Small`]: a vector that keeps its first few items inline. A book's
//! log and its fold are a handful of entries, and so is a payment's lock
//! profile, so none of them needs an allocation.

use std::ops::{Deref, DerefMut};

/// Up to `N` items inline, more on the heap, read as a slice. The inline
/// array starts as `N` copies of a filler value that is never read, so a
/// push writes its item in place; pushing past `N` moves every item to the
/// heap.
#[derive(Clone)]
pub struct Small<T, const N: usize> {
    inline: [T; N],
    len: usize,
    /// Every item, once there are more than `N`.
    spilled: Vec<T>,
}

impl<T: Copy, const N: usize> Small<T, N> {
    /// An empty vector; `filler` only occupies the unused inline slots.
    pub fn new(filler: T) -> Self {
        Small {
            inline: [filler; N],
            len: 0,
            spilled: Vec::new(),
        }
    }

    /// Appends `item`.
    pub fn push(&mut self, item: T) {
        if self.len < N {
            self.inline[self.len] = item;
        } else {
            if self.len == N {
                self.spilled.reserve(2 * N);
                self.spilled.extend_from_slice(&self.inline);
            }
            self.spilled.push(item);
        }
        self.len += 1;
    }
}

/// Filled with `T::default()`.
impl<T: Copy + Default, const N: usize> Default for Small<T, N> {
    fn default() -> Self {
        Small::new(T::default())
    }
}

impl<T, const N: usize> Deref for Small<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        if self.len <= N {
            &self.inline[..self.len]
        } else {
            &self.spilled
        }
    }
}

impl<T, const N: usize> DerefMut for Small<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        if self.len <= N {
            &mut self.inline[..self.len]
        } else {
            &mut self.spilled
        }
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a Small<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Reads as its items, as a `Vec` would.
impl<T: std::fmt::Debug, const N: usize> std::fmt::Debug for Small<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_as_its_pushes_inline_and_spilled() {
        let mut s = Small::<u32, 3>::new(99);
        let mut want = Vec::new();
        assert!(s.is_empty());
        for x in 0..8 {
            s.push(x);
            want.push(x);
            assert_eq!(&s[..], &want[..]);
        }
        s[7] = 70;
        assert_eq!(format!("{s:?}"), "[0, 1, 2, 3, 4, 5, 6, 70]");
    }
}
