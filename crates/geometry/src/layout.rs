//! Binary single-layer layout rasters.

use crate::rect::Rect;
use serde::{Deserialize, Serialize};

/// A single-layer Manhattan layout clip as a binary raster.
///
/// Each pixel is one design-grid unit (nominally a few nanometres). `true`
/// means metal is present. This is the "pixel-based representation" that
/// PatternPaint operates on: Δx/Δy of the squish grid are pre-defined with a
/// fixed physical width per pixel, so no nonlinear solver is needed to
/// recover geometry.
///
/// Pixels are bit-packed (a 32×32 clip is 128 bytes), so pattern
/// libraries of many thousands of clips stay small.
///
/// # Example
///
/// ```
/// use pp_geometry::{Layout, Rect};
///
/// let mut l = Layout::new(8, 8);
/// l.fill_rect(Rect::new(1, 1, 2, 6));
/// assert!(l.get(1, 3));
/// assert!(!l.get(4, 4));
/// assert_eq!(l.metal_area(), 12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Layout {
    width: u32,
    height: u32,
    /// Row-major pixels, pixel `i` at bit `i % 64` of word `i / 64`.
    /// Bits past `width·height` stay zero, so the derived `Eq` and
    /// `Hash` see pixels only.
    words: Vec<u64>,
}

impl Layout {
    /// Creates an empty (all-zero) layout clip.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "layout dimensions must be nonzero");
        let len = (width as usize) * (height as usize);
        Layout {
            width,
            height,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Builds a layout from a row-major bit vector.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != width * height` or a dimension is zero.
    pub fn from_bits(width: u32, height: u32, bits: Vec<bool>) -> Self {
        let mut layout = Layout::new(width, height);
        assert_eq!(
            bits.len(),
            layout.len(),
            "bit vector length must match dimensions"
        );
        for (word, chunk) in layout.words.iter_mut().zip(bits.chunks(64)) {
            *word = match <&[bool; 64]>::try_from(chunk) {
                // A full word: a fixed trip count the compiler vectorises.
                Ok(full) => {
                    let mut w = 0;
                    for (i, &b) in full.iter().enumerate() {
                        w |= u64::from(b) << i;
                    }
                    w
                }
                Err(_) => chunk
                    .iter()
                    .enumerate()
                    .fold(0, |w, (i, &b)| w | (u64::from(b) << i)),
            };
        }
        layout
    }

    /// Parses a layout from an ASCII art string where `#`/`1` are metal and
    /// `.`/`0`/space are empty. Rows are newline-separated; all rows must
    /// have equal length.
    ///
    /// # Panics
    ///
    /// Panics on ragged rows, unknown characters or an empty string.
    pub fn from_ascii(art: &str) -> Self {
        let rows: Vec<&str> = art
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .collect();
        assert!(!rows.is_empty(), "empty ascii layout");
        let width = rows[0].chars().count() as u32;
        let height = rows.len() as u32;
        let mut bits = Vec::with_capacity((width * height) as usize);
        for row in &rows {
            assert_eq!(row.chars().count() as u32, width, "ragged ascii layout");
            for ch in row.chars() {
                match ch {
                    '#' | '1' => bits.push(true),
                    '.' | '0' | ' ' => bits.push(false),
                    other => panic!("unknown layout character {other:?}"),
                }
            }
        }
        Layout::from_bits(width, height, bits)
    }

    /// Width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The clip as a rectangle at the origin.
    pub fn bounds(&self) -> Rect {
        Rect::new(0, 0, self.width, self.height)
    }

    /// Number of pixels.
    fn len(&self) -> usize {
        (self.width as usize) * (self.height as usize)
    }

    #[inline]
    fn idx(&self, x: u32, y: u32) -> usize {
        debug_assert!(x < self.width && y < self.height);
        (y as usize) * (self.width as usize) + (x as usize)
    }

    #[inline]
    fn bit(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 != 0
    }

    /// Reads the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds (in debug builds; release builds may return
    /// an arbitrary pixel via the flattened index).
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> bool {
        self.bit(self.idx(x, y))
    }

    /// Writes the pixel at `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, value: bool) {
        let i = self.idx(x, y);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Fills `rect ∩ bounds` with metal.
    pub fn fill_rect(&mut self, rect: Rect) {
        self.paint_rect(rect, true);
    }

    /// Clears `rect ∩ bounds`.
    pub fn clear_rect(&mut self, rect: Rect) {
        self.paint_rect(rect, false);
    }

    fn paint_rect(&mut self, rect: Rect, value: bool) {
        if let Some(r) = rect.intersect(&self.bounds()) {
            for y in r.y..r.bottom() {
                for x in r.x..r.right() {
                    self.set(x, y, value);
                }
            }
        }
    }

    /// Number of metal pixels.
    pub fn metal_area(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Metal density in `[0, 1]`.
    pub fn density(&self) -> f64 {
        self.metal_area() as f64 / (self.width as f64 * self.height as f64)
    }

    /// Row-major iterator over pixels.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len()).map(|i| self.bit(i))
    }

    /// Extracts the sub-clip `rect ∩ bounds` as a new layout.
    ///
    /// # Panics
    ///
    /// Panics if the intersection is empty.
    pub fn crop(&self, rect: Rect) -> Layout {
        let r = rect
            .intersect(&self.bounds())
            .expect("crop rect must intersect layout");
        let mut out = Layout::new(r.w, r.h);
        for y in 0..r.h {
            for x in 0..r.w {
                out.set(x, y, self.get(r.x + x, r.y + y));
            }
        }
        out
    }

    /// Pastes `src` with its top-left corner at `(x, y)`, clipping at the
    /// boundary.
    pub fn paste(&mut self, src: &Layout, x: u32, y: u32) {
        for sy in 0..src.height() {
            let dy = y + sy;
            if dy >= self.height {
                break;
            }
            for sx in 0..src.width() {
                let dx = x + sx;
                if dx >= self.width {
                    break;
                }
                self.set(dx, dy, src.get(sx, sy));
            }
        }
    }

    /// Mirrors the layout left-right.
    pub fn flip_horizontal(&self) -> Layout {
        let mut out = Layout::new(self.width, self.height);
        for y in 0..self.height {
            for x in 0..self.width {
                out.set(self.width - 1 - x, y, self.get(x, y));
            }
        }
        out
    }

    /// Mirrors the layout top-bottom.
    pub fn flip_vertical(&self) -> Layout {
        let mut out = Layout::new(self.width, self.height);
        for y in 0..self.height {
            for x in 0..self.width {
                out.set(x, self.height - 1 - y, self.get(x, y));
            }
        }
        out
    }

    /// Rotates the clip 90° clockwise (width and height swap).
    pub fn rotate_cw(&self) -> Layout {
        let mut out = Layout::new(self.height, self.width);
        for y in 0..self.height {
            for x in 0..self.width {
                out.set(self.height - 1 - y, x, self.get(x, y));
            }
        }
        out
    }

    /// Per-pixel logical OR of two equally sized clips.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn or(&self, other: &Layout) -> Layout {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "layout dimensions must match"
        );
        Layout {
            width: self.width,
            height: self.height,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a | b)
                .collect(),
        }
    }

    /// Number of pixels whose value differs between the two clips.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn hamming_distance(&self, other: &Layout) -> u64 {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "layout dimensions must match"
        );
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| u64::from((a ^ b).count_ones()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_and_query() {
        let mut l = Layout::new(10, 10);
        l.fill_rect(Rect::new(2, 2, 3, 4));
        assert!(l.get(2, 2) && l.get(4, 5));
        assert!(!l.get(5, 2) && !l.get(2, 6));
        assert_eq!(l.metal_area(), 12);
    }

    #[test]
    fn fill_clips_at_boundary() {
        let mut l = Layout::new(4, 4);
        l.fill_rect(Rect::new(2, 2, 10, 10));
        assert_eq!(l.metal_area(), 4);
    }

    #[test]
    fn clear_rect_removes_metal() {
        let mut l = Layout::new(6, 6);
        l.fill_rect(Rect::new(0, 0, 6, 6));
        l.clear_rect(Rect::new(1, 1, 4, 4));
        assert_eq!(l.metal_area(), 36 - 16);
        assert!(!l.get(2, 2));
        assert!(l.get(0, 0));
    }

    #[test]
    fn ascii_roundtrip() {
        let art = "\
            ##..\n\
            ##..\n\
            ..##\n\
            ..##";
        let l = Layout::from_ascii(art);
        assert_eq!(l.width(), 4);
        assert_eq!(l.height(), 4);
        assert!(l.get(0, 0) && l.get(3, 3));
        assert!(!l.get(2, 0));
    }

    #[test]
    fn crop_and_paste_roundtrip() {
        let mut l = Layout::new(8, 8);
        l.fill_rect(Rect::new(1, 1, 3, 3));
        let sub = l.crop(Rect::new(0, 0, 4, 4));
        let mut back = Layout::new(8, 8);
        back.paste(&sub, 0, 0);
        assert_eq!(back.crop(Rect::new(0, 0, 4, 4)), sub);
    }

    #[test]
    fn flips_are_involutions() {
        let mut l = Layout::new(5, 7);
        l.fill_rect(Rect::new(0, 1, 2, 3));
        assert_eq!(l.flip_horizontal().flip_horizontal(), l);
        assert_eq!(l.flip_vertical().flip_vertical(), l);
    }

    #[test]
    fn rotate_four_times_is_identity() {
        let mut l = Layout::new(4, 6);
        l.fill_rect(Rect::new(1, 2, 2, 3));
        let r = l.rotate_cw().rotate_cw().rotate_cw().rotate_cw();
        assert_eq!(r, l);
    }

    #[test]
    fn density_of_half_filled() {
        let mut l = Layout::new(4, 4);
        l.fill_rect(Rect::new(0, 0, 4, 2));
        assert!((l.density() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hamming_distance_counts_differences() {
        let mut a = Layout::new(4, 4);
        let mut b = Layout::new(4, 4);
        a.fill_rect(Rect::new(0, 0, 2, 1));
        b.fill_rect(Rect::new(1, 0, 2, 1));
        assert_eq!(a.hamming_distance(&b), 2);
        assert_eq!(a.hamming_distance(&a), 0);
    }

    #[test]
    fn or_unions_metal() {
        let mut a = Layout::new(3, 1);
        let mut b = Layout::new(3, 1);
        a.set(0, 0, true);
        b.set(2, 0, true);
        let u = a.or(&b);
        assert!(u.get(0, 0) && u.get(2, 0) && !u.get(1, 0));
    }

    /// Deterministic xorshift stream for the model test.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u32) -> u32 {
            (self.next() % u64::from(n)) as u32
        }

        fn rect(&mut self, w: u32, h: u32) -> Rect {
            let (x, y) = (self.below(w), self.below(h));
            Rect::new(x, y, 1 + self.below(w - x), 1 + self.below(h - y))
        }
    }

    /// Row-major `Vec<bool>` model of a `w×h` clip.
    #[derive(Clone)]
    struct Model {
        w: u32,
        h: u32,
        px: Vec<bool>,
    }

    impl Model {
        fn at(&self, x: u32, y: u32) -> bool {
            self.px[(y * self.w + x) as usize]
        }

        fn paint(&mut self, r: Rect, v: bool) {
            for y in r.y..r.bottom().min(self.h) {
                for x in r.x..r.right().min(self.w) {
                    self.px[(y * self.w + x) as usize] = v;
                }
            }
        }

        fn map(&self, w: u32, h: u32, src: impl Fn(u32, u32) -> (u32, u32)) -> Model {
            let mut px = Vec::new();
            for y in 0..h {
                for x in 0..w {
                    let (sx, sy) = src(x, y);
                    px.push(self.at(sx, sy));
                }
            }
            Model { w, h, px }
        }

        fn assert_eq(&self, l: &Layout, what: &str) {
            assert_eq!((l.width(), l.height()), (self.w, self.h), "{what}: size");
            assert_eq!(l.iter().collect::<Vec<_>>(), self.px, "{what}: iter");
            for y in 0..self.h {
                for x in 0..self.w {
                    assert_eq!(l.get(x, y), self.at(x, y), "{what}: get({x}, {y})");
                }
            }
            let area = self.px.iter().filter(|&&b| b).count() as u64;
            assert_eq!(l.metal_area(), area, "{what}: metal_area");
            // Equal pixels, however reached, are equal values with equal
            // hashes: the packed padding bits never leak.
            let rebuilt = Layout::from_bits(self.w, self.h, self.px.clone());
            assert_eq!(*l, rebuilt, "{what}: eq");
            assert_eq!(hash(l), hash(&rebuilt), "{what}: hash");
        }
    }

    fn hash(l: &Layout) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        l.hash(&mut h);
        h.finish()
    }

    fn random_pair(rng: &mut Rng, w: u32, h: u32) -> (Layout, Model) {
        let mut l = Layout::new(w, h);
        let mut m = Model {
            w,
            h,
            px: vec![false; (w * h) as usize],
        };
        for _ in 0..6 {
            let (r, v) = (rng.rect(w, h), rng.below(3) > 0);
            if v {
                l.fill_rect(r);
            } else {
                l.clear_rect(r);
            }
            m.paint(r, v);
        }
        for _ in 0..8 {
            let (x, y, v) = (rng.below(w), rng.below(h), rng.below(2) == 1);
            l.set(x, y, v);
            m.px[(y * w + x) as usize] = v;
        }
        (l, m)
    }

    #[test]
    fn packed_layout_matches_bool_model() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for (w, h) in [(7u32, 9u32), (33, 2), (65, 1), (1, 70), (70, 3), (32, 32)] {
            for _ in 0..20 {
                let (a, ma) = random_pair(&mut rng, w, h);
                let (b, mb) = random_pair(&mut rng, w, h);
                ma.assert_eq(&a, "set/fill/clear");
                let or = Model {
                    px: ma.px.iter().zip(&mb.px).map(|(x, y)| x | y).collect(),
                    ..ma.clone()
                };
                or.assert_eq(&a.or(&b), "or");
                let diff = ma.px.iter().zip(&mb.px).filter(|(x, y)| x != y).count();
                assert_eq!(a.hamming_distance(&b), diff as u64, "hamming");
                let r = rng.rect(w, h);
                ma.map(r.w, r.h, |x, y| (r.x + x, r.y + y))
                    .assert_eq(&a.crop(r), "crop");
                ma.map(w, h, |x, y| (w - 1 - x, y))
                    .assert_eq(&a.flip_horizontal(), "flip_horizontal");
                ma.map(w, h, |x, y| (x, h - 1 - y))
                    .assert_eq(&a.flip_vertical(), "flip_vertical");
                ma.map(h, w, |x, y| (y, h - 1 - x))
                    .assert_eq(&a.rotate_cw(), "rotate_cw");
            }
            // Filling then clearing everything is the empty clip.
            let mut full = Layout::new(w, h);
            full.fill_rect(full.bounds());
            assert_eq!(full.metal_area(), u64::from(w * h));
            full.clear_rect(full.bounds());
            assert_eq!(full, Layout::new(w, h));
            assert_eq!(hash(&full), hash(&Layout::new(w, h)));
        }
    }

    #[test]
    #[should_panic(expected = "dimensions must be nonzero")]
    fn zero_dimension_rejected() {
        let _ = Layout::new(0, 4);
    }
}
