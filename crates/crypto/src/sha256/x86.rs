//! The SHA-256 compression function on the x86-64 SHA extensions (SHA-NI).
//!
//! `sha256rnds2` runs two rounds, `sha256msg1` / `sha256msg2` extend the
//! message schedule four words at a time, so a block is 16 groups of four
//! rounds. The state travels in the two registers the instructions expect,
//! `ABEF` and `CDGH`, and is shuffled in from and back out to the FIPS
//! word order once per block.
//!
//! This is the one module of the workspace that may use `unsafe`: the
//! intrinsics need a CPU with the extensions, which [`ShaNi::detect`]
//! checks at run time, and the loads read through raw pointers. Everything
//! outside this file calls the safe [`ShaNi::compress`]. The intrinsic
//! calls themselves sit in `unsafe fn` bodies with the features they need
//! enabled, which makes them callable on every supported toolchain.

#![allow(unsafe_code)]

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_storeu_si128,
};

use super::K;

/// Proof that the running CPU has every extension the kernel is compiled
/// for. Only [`ShaNi::detect`] builds one, so holding a `ShaNi` is what
/// makes [`ShaNi::compress`] safe to call.
#[derive(Clone, Copy)]
pub(super) struct ShaNi(());

impl ShaNi {
    /// `Some` when the CPU reports `sha`, `sse2`, `ssse3` and `sse4.1`.
    /// `is_x86_feature_detected!` caches its answer, so this is a load and
    /// a few bit tests after the first call.
    #[inline]
    pub(super) fn detect() -> Option<ShaNi> {
        let has = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        has.then_some(ShaNi(()))
    }

    /// The FIPS 180-4 compression function over one 512-bit block.
    #[inline]
    pub(super) fn compress(self, state: &mut [u32; 8], block: &[u8; 64]) {
        // SAFETY: a `ShaNi` exists only after `detect` saw every feature
        // `compress_block` enables, on this CPU.
        unsafe { compress_block(state, block) }
    }
}

/// Next four schedule words `W[t..t+4]` from the previous sixteen,
/// `w0 = W[t-16..t-12]` (oldest) to `w3 = W[t-4..t]`.
///
/// # Safety
///
/// The CPU must support `sha`, `sse2` and `ssse3`.
#[inline]
#[target_feature(enable = "sha,sse2,ssse3")]
unsafe fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
    // σ0 over W[t-16..t-12] plus W[t-15..t-11], then W[t-7..t-3], then σ1
    // (which needs the words this call is producing, hence msg2's chain).
    let t = _mm_sha256msg1_epu32(w0, w1);
    let t = _mm_add_epi32(t, _mm_alignr_epi8(w3, w2, 4));
    _mm_sha256msg2_epu32(t, w3)
}

/// # Safety
///
/// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_block(state: &mut [u32; 8], block: &[u8; 64]) {
    // Byte-reverses each 32-bit lane: the block's words are big-endian.
    let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    // SAFETY: `state` is 8 `u32`s = two 16-byte unaligned loads.
    let (dcba, hgfe) = unsafe {
        let p = state.as_ptr().cast::<__m128i>();
        (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
    };
    let cdab = _mm_shuffle_epi32(dcba, 0xb1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
    let (abef_in, cdgh_in) = (abef, cdgh);

    // The message schedule as a ring of four groups: `w[g % 4]` holds
    // `W[4g..4g+4]`, and group `g ≥ 4` overwrites group `g - 4`.
    // SAFETY: `block` is 64 bytes = four 16-byte unaligned loads.
    let mut w = unsafe {
        let p = block.as_ptr().cast::<__m128i>();
        [
            _mm_loadu_si128(p),
            _mm_loadu_si128(p.add(1)),
            _mm_loadu_si128(p.add(2)),
            _mm_loadu_si128(p.add(3)),
        ]
    };
    for g in 0..16 {
        w[g % 4] = if g < 4 {
            _mm_shuffle_epi8(w[g], be_words)
        } else {
            // SAFETY: this function enables every feature `schedule` needs.
            unsafe { schedule(w[g % 4], w[(g + 1) % 4], w[(g + 2) % 4], w[(g + 3) % 4]) }
        };
        // SAFETY: `g < 16`, so `K[4g..4g+4]` is in bounds of `K`'s 64 words.
        let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * g).cast::<__m128i>()) };
        let wk = _mm_add_epi32(w[g % 4], k);
        // Each rnds2 reads W+K from the low two lanes: rounds 4g, 4g+1,
        // then the high two lanes moved down for 4g+2, 4g+3.
        cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
        abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);

    let feba = _mm_shuffle_epi32(abef, 0x1b);
    let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
    let hgef = _mm_alignr_epi8(dchg, feba, 8);
    // SAFETY: as for the loads above: two 16-byte stores into 8 `u32`s.
    unsafe {
        let p = state.as_mut_ptr().cast::<__m128i>();
        _mm_storeu_si128(p, dcba);
        _mm_storeu_si128(p.add(1), hgef);
    }
}
