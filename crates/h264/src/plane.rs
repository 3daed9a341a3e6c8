//! Pixel planes and frames.
//!
//! A [`Plane`] is a single 8-bit component (luma or one chroma plane) with
//! a 16-byte-aligned stride — exactly the layout FFmpeg's H.264 decoder
//! uses, and the reason motion-compensation *loads* can land on any
//! `(addr % 16)` while *stores* land on offsets determined by the block
//! position alone (the paper's Fig. 4). A [`Frame`] is a YCbCr 4:2:0
//! triple.

use std::fmt;

/// Guard margin kept around every plane so sub-pel interpolation (which
/// reads up to 3 pixels outside a block) never leaves the buffer.
pub const PLANE_MARGIN: usize = 32;

/// One 8-bit pixel component plane with an aligned stride and guard
/// margins.
#[derive(Clone, PartialEq, Eq)]
pub struct Plane {
    width: usize,
    height: usize,
    stride: usize,
    /// Offset of pixel (0,0) inside `data`.
    origin: usize,
    data: Vec<u8>,
}

impl fmt::Debug for Plane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Plane")
            .field("width", &self.width)
            .field("height", &self.height)
            .field("stride", &self.stride)
            .finish()
    }
}

impl Plane {
    /// Creates a zeroed plane of `width` x `height` visible pixels with a
    /// 16-byte-aligned stride and [`PLANE_MARGIN`] guard pixels on every
    /// side.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "plane dimensions must be non-zero");
        let stride = (width + 2 * PLANE_MARGIN + 15) & !15;
        let rows = height + 2 * PLANE_MARGIN;
        // Keep the origin 16-byte aligned: the margin is a multiple of 16.
        let origin = PLANE_MARGIN * stride + PLANE_MARGIN;
        Plane {
            width,
            height,
            stride,
            origin,
            data: vec![0; stride * rows],
        }
    }

    /// Visible width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Visible height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Row stride in bytes (16-byte aligned).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Pixel at `(x, y)`; coordinates may extend [`PLANE_MARGIN`] pixels
    /// outside the visible area.
    #[inline]
    pub fn get(&self, x: isize, y: isize) -> u8 {
        self.data[self.offset(x, y)]
    }

    /// Sets the pixel at `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: isize, y: isize, v: u8) {
        let o = self.offset(x, y);
        self.data[o] = v;
    }

    #[inline]
    fn offset(&self, x: isize, y: isize) -> usize {
        debug_assert!(
            x >= -(PLANE_MARGIN as isize)
                && (x as i64) < (self.width + PLANE_MARGIN) as i64
                && y >= -(PLANE_MARGIN as isize)
                && (y as i64) < (self.height + PLANE_MARGIN) as i64,
            "plane access ({x},{y}) outside guarded area"
        );
        (self.origin as isize + y * self.stride as isize + x) as usize
    }

    /// Linear byte index of pixel `(x, y)` within [`Plane::raw`] — what a
    /// pointer-based kernel would compute. `(0,0)` is 16-byte aligned.
    pub fn index_of(&self, x: isize, y: isize) -> usize {
        self.offset(x, y)
    }

    /// The raw backing buffer, including margins.
    pub fn raw(&self) -> &[u8] {
        &self.data
    }

    /// Fills the visible area via `f(x, y) -> pixel` and replicates edge
    /// pixels into the margins (H.264 frame extension).
    pub fn fill_with(&mut self, mut f: impl FnMut(usize, usize) -> u8) {
        for y in 0..self.height {
            for x in 0..self.width {
                let v = f(x, y);
                self.set(x as isize, y as isize, v);
            }
        }
        self.extend_edges();
    }

    /// Replicates border pixels into the guard margins.
    pub fn extend_edges(&mut self) {
        let (w, h, m) = (
            self.width as isize,
            self.height as isize,
            PLANE_MARGIN as isize,
        );
        for y in 0..h {
            let left = self.get(0, y);
            let right = self.get(w - 1, y);
            for x in 1..=m {
                self.set(-x, y, left);
                self.set(w - 1 + x, y, right);
            }
        }
        for y in 1..=m {
            for x in -m..(w + m) {
                let top = self.get(x, 0);
                let bottom = self.get(x, h - 1);
                self.set(x, -y, top);
                self.set(x, h - 1 + y, bottom);
            }
        }
    }

    /// Copies a `w` x `h` block with top-left `(x, y)` into a row-major
    /// vector (test/diagnostic helper).
    pub fn block(&self, x: isize, y: isize, w: usize, h: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(w * h);
        for dy in 0..h as isize {
            for dx in 0..w as isize {
                out.push(self.get(x + dx, y + dy));
            }
        }
        out
    }
}

/// Video resolutions used in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resolution {
    /// 720x576 (labelled "576" in Fig. 4/10).
    Sd576,
    /// 1280x720.
    Hd720,
    /// 1920x1088.
    Hd1088,
}

impl Resolution {
    /// All three paper resolutions.
    pub const ALL: &'static [Resolution] =
        &[Resolution::Sd576, Resolution::Hd720, Resolution::Hd1088];

    /// Luma width and height in pixels.
    pub fn luma_dims(self) -> (usize, usize) {
        match self {
            Resolution::Sd576 => (720, 576),
            Resolution::Hd720 => (1280, 720),
            Resolution::Hd1088 => (1920, 1088),
        }
    }

    /// Macroblock grid dimensions (16x16 luma MBs).
    pub fn mb_dims(self) -> (usize, usize) {
        let (w, h) = self.luma_dims();
        (w / 16, h / 16)
    }

    /// The paper's short label ("576", "720", "1088").
    pub fn label(self) -> &'static str {
        match self {
            Resolution::Sd576 => "576",
            Resolution::Hd720 => "720",
            Resolution::Hd1088 => "1088",
        }
    }
}

impl fmt::Display for Resolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (w, h) = self.luma_dims();
        write!(f, "{w}x{h}")
    }
}

/// A YCbCr 4:2:0 frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Luma plane.
    pub y: Plane,
    /// Blue-difference chroma plane (half resolution).
    pub cb: Plane,
    /// Red-difference chroma plane (half resolution).
    pub cr: Plane,
}

impl Frame {
    /// Creates a zeroed 4:2:0 frame at `res`.
    pub fn new(res: Resolution) -> Self {
        let (w, h) = res.luma_dims();
        Frame {
            y: Plane::new(w, h),
            cb: Plane::new(w / 2, h / 2),
            cr: Plane::new(w / 2, h / 2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_is_16_aligned_and_origin_aligned() {
        for (w, h) in [(720, 576), (1280, 720), (1920, 1088), (17, 9)] {
            let p = Plane::new(w, h);
            assert_eq!(p.stride() % 16, 0);
            assert_eq!(p.index_of(0, 0) % 16, 0, "origin must be 16B aligned");
            assert!(p.stride() >= w + 2 * PLANE_MARGIN);
        }
    }

    #[test]
    fn get_set_roundtrip_including_margins() {
        let mut p = Plane::new(32, 16);
        p.set(0, 0, 1);
        p.set(31, 15, 2);
        p.set(-3, -3, 3);
        p.set(34, 18, 4);
        assert_eq!(p.get(0, 0), 1);
        assert_eq!(p.get(31, 15), 2);
        assert_eq!(p.get(-3, -3), 3);
        assert_eq!(p.get(34, 18), 4);
    }

    #[test]
    fn index_of_matches_pointer_arithmetic() {
        let p = Plane::new(64, 32);
        let base = p.index_of(0, 0);
        assert_eq!(p.index_of(5, 3), base + 3 * p.stride() + 5);
        // An x-offset determines (addr % 16) because base and stride are
        // 16-byte aligned — the crux of the paper's Fig. 4.
        assert_eq!(p.index_of(13, 7) % 16, 13);
    }

    #[test]
    fn fill_and_edge_extension() {
        let mut p = Plane::new(16, 8);
        p.fill_with(|x, y| (x + 16 * y) as u8);
        assert_eq!(p.get(0, 0), 0);
        assert_eq!(p.get(15, 0), 15);
        // Margins replicate the border.
        assert_eq!(p.get(-5, 0), p.get(0, 0));
        assert_eq!(p.get(20, 3), p.get(15, 3));
        assert_eq!(p.get(3, -4), p.get(3, 0));
        assert_eq!(p.get(3, 12), p.get(3, 7));
        // Corner.
        assert_eq!(p.get(-2, -2), p.get(0, 0));
    }

    #[test]
    fn block_extraction() {
        let mut p = Plane::new(8, 8);
        p.fill_with(|x, y| (10 * y + x) as u8);
        let b = p.block(1, 2, 3, 2);
        assert_eq!(b, vec![21, 22, 23, 31, 32, 33]);
    }

    #[test]
    fn resolutions() {
        assert_eq!(Resolution::Sd576.luma_dims(), (720, 576));
        assert_eq!(Resolution::Hd720.mb_dims(), (80, 45));
        assert_eq!(Resolution::Hd1088.mb_dims(), (120, 68));
        assert_eq!(Resolution::Hd1088.label(), "1088");
        assert_eq!(Resolution::Sd576.to_string(), "720x576");
        assert_eq!(Resolution::ALL.len(), 3);
    }

    #[test]
    fn frame_420_subsampling() {
        let f = Frame::new(Resolution::Sd576);
        assert_eq!(f.y.width(), 720);
        assert_eq!(f.cb.width(), 360);
        assert_eq!(f.cr.height(), 288);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dims_rejected() {
        let _ = Plane::new(0, 4);
    }
}
