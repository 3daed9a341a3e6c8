//! # valign-kernels — the paper's H.264 kernels in three variants
//!
//! Every kernel of the paper's evaluation, written against the tracing VM
//! of `valign-vm` in the three implementations the paper compares:
//!
//! | kernel | module | scalar | altivec | unaligned |
//! |---|---|---|---|---|
//! | luma ½-pel interpolation (16x16/8x8/4x4) | [`luma`] | byte loops | per-window `lvsl`+2×`lvx`+`vperm` | one `lvxu` per window |
//! | chroma bilinear (8x8/4x4) | [`chroma`] | byte loops | offset-dependent branch + realign | branch-free `lvxu` |
//! | IDCT 4x4 (factorised + matrix) and 8x8 | [`idct`] | integer butterflies | aligned data, realigned store tail | `lvxu`/`stvxu` store tail |
//! | SAD (16x16/8x8/4x4) | [`sad`](mod@crate::sad) | abs-diff loops | realigned search loads | one `lvxu` per row |
//! | deblocking, vertical luma edges (extension) | [`deblock`] | 3 branches/line | transpose + Fig. 5 stores | `lvxu`/`stvxu` rows |
//!
//! All vector kernels are verified bit-for-bit against the golden scalar
//! references in `valign-h264`, at every pointer offset `0..16`.
//!
//! ## Example
//!
//! ```
//! use valign_kernels::util::Variant;
//! use valign_kernels::sad::{sad, SadArgs};
//! use valign_vm::Vm;
//!
//! let mut vm = Vm::new();
//! let buf = vm.mem_mut().alloc(64 * 64, 16);
//! for i in 0..64 * 64 {
//!     vm.mem_mut().write_u8(buf + i, (i % 251) as u8);
//! }
//! let scratch = vm.mem_mut().alloc(16, 16);
//! let args = SadArgs {
//!     cur: buf,
//!     cur_stride: 64,
//!     refp: buf + 64 * 3 + 5, // displaced, unaligned candidate
//!     ref_stride: 64,
//!     scratch,
//!     w: 16,
//!     h: 16,
//! };
//! let fast = sad(&mut vm, Variant::Unaligned, &args);
//! let slow = sad(&mut vm, Variant::Altivec, &args);
//! assert_eq!(fast.value(), slow.value());
//! ```

#![forbid(unsafe_code)]

pub mod cabac;
pub mod chroma;
pub mod deblock;
pub mod idct;
pub mod luma;
pub mod sad;
pub mod util;

pub use cabac::{cabac_decode_bins, setup_cabac, CabacLayout};
pub use chroma::{chroma_bilin, ChromaArgs};
pub use deblock::{deblock_vertical_luma, DeblockArgs};
pub use idct::{idct4x4, idct4x4_matrix, idct8x8, setup_matrix_consts, IdctArgs};
pub use luma::{luma_hv, McArgs};
pub use sad::{sad, SadArgs};
pub use util::Variant;
