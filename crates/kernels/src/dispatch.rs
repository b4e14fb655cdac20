//! Runtime choice of the instruction set a kernel body is compiled for.
//!
//! A kernel is a [`Body`]: its arguments in a struct and one
//! `#[inline(always)]` `run`. The body is instantiated twice — inside
//! [`avx2_fma`], whose `#[target_feature]` makes LLVM emit 256-bit
//! `vfnmadd` for the micro-tile, and in [`portable`], where `mul_add` is
//! the target's own FMA (aarch64, or x86-64 built with
//! `-C target-feature=+fma`) or libm's exact software `fma`. Both compute
//! the same correctly rounded fused multiply-adds in the same order, so
//! the choice changes speed and never bits; `is_x86_feature_detected!`
//! makes it, not a flag.
//!
//! This file holds the crate's only `unsafe` block.

/// A kernel call: arguments plus the code to run on them.
pub(crate) trait Body {
    /// What the kernel returns.
    type Out;
    /// The kernel itself. Implementations are `#[inline(always)]`, and so
    /// is everything they call, so that the whole body is compiled with
    /// the features of the arm it is instantiated in.
    fn run(self) -> Self::Out;
}

/// Run `body` on the fastest arm this CPU supports.
pub(crate) fn dispatch<B: Body>(body: B) -> B::Out {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        // SAFETY: `avx2_fma` is a safe function whose only requirement is
        // that the CPU supports AVX2 and FMA, which the line above checked.
        #[allow(unsafe_code)]
        return unsafe { avx2_fma(body) };
    }
    portable(body)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn avx2_fma<B: Body>(body: B) -> B::Out {
    body.run()
}

/// The arm with no instruction-set assumption beyond the build target's.
pub(crate) fn portable<B: Body>(body: B) -> B::Out {
    body.run()
}
