//! Enumeration of winding tiles (= DRC-routable cycles) of a ring, with
//! the precomputed per-tile metadata the exact solver's hot path runs on.

use crate::bitset::ChordSet;
use cyclecover_graph::Edge;
use cyclecover_ring::{Ring, Tile};
use std::sync::OnceLock;

/// The universe of candidate covering cycles for exact search on `C_n`:
/// all winding tiles with size in `3..=max_len`, optionally restricted by a
/// maximum gap (arc length).
///
/// By the winding lemma every DRC-routable cycle *is* a tile (a vertex
/// subset in ring order), so enumerating subsets enumerates all admissible
/// covering cycles — there is no loss of generality for the exact solvers.
///
/// # Chord indexing
///
/// Chords have two index spaces:
///
/// * **dense** — [`Edge::dense_index`] order, the external convention used
///   by [`crate::bnb::CoverSpec`] and the rest of the workspace;
/// * **priority** — chords sorted by decreasing branch priority (diameter
///   chords first, then decreasing ring distance, ties by dense index).
///
/// All solver-internal metadata (tile chord lists, bitmasks, distance
/// table) lives in *priority* space, so "highest-priority unsatisfied
/// chord" is simply the first set bit of a [`ChordSet`]. Convert with
/// [`TileUniverse::pri_of_dense`] / [`TileUniverse::dense_of_pri`].
///
/// # Layout
///
/// Tiles are numbered in lexicographic order of their sorted vertex
/// lists (the enumeration order), and every per-tile table is a flat
/// array indexed by that number — no tile owns a heap object:
///
/// * chord lists are CSR (a tile has as many chords as vertices); the
///   vertex lists are not stored but read off the chord lists, since the
///   `j`-th chord of a tile joins its vertices `j` and `j+1`;
/// * chord bitmasks live in one `u64` slab with a fixed stride of
///   `⌈m/64⌉` words, each with its `[lo, hi)` span of nonzero words;
/// * load, wasted capacity and diameter-chord count are plain columns;
/// * per-chord candidate lists are CSR in priority order, each list in
///   increasing tile order;
/// * tile lookup by vertex set is a binary search over the derived
///   vertex lists.
///
/// The branch & bound touches only the chord-side tables — never the
/// vertex lists — so a search node costs a few word operations instead of
/// per-chord ring arithmetic.
pub struct TileUniverse {
    ring: Ring,

    // ---- chord tables (priority space) ----
    /// dense index → priority index.
    pri_of_dense: Vec<u32>,
    /// priority index → dense index.
    dense_of_pri: Vec<u32>,
    /// priority index → ring distance of the chord.
    dist_of_pri: Vec<u32>,
    /// priority index → the chord's two ring vertices `(u, v)` with
    /// `u < v` — the endpoints whose uncovered degrees a placement
    /// changes (the iterative core's incremental parity bookkeeping).
    ends_of_pri: Vec<(u32, u32)>,
    /// Priority indices `< diam_chords` are exactly the diameter-class
    /// chords (0 for odd `n`).
    diam_chords: u32,
    /// CSR offsets into `cands`: the tiles having priority chord `c` (as
    /// a ring-consecutive pair, i.e. actually covering it) are
    /// `cands[cand_off[c]..cand_off[c+1]]`, in increasing tile order.
    cand_off: Vec<u32>,
    /// Concatenated per-chord candidate lists.
    cands: Vec<u32>,
    /// Longest per-chord candidate list — the one-shot sizing bound for
    /// per-node candidate arenas (no search node can see more).
    max_candidates: u32,
    /// `vertex_masks[v]`: the chords incident to ring vertex `v`
    /// (priority space) — the support of the vertex-degree lower bound.
    vertex_masks: Vec<ChordSet>,

    // ---- tile tables ----
    /// CSR offsets into `chord_idx`: tile `i` owns slots
    /// `tile_off[i]..tile_off[i+1]`.
    tile_off: Vec<u32>,
    /// Concatenated per-tile chord lists (priority indices), the `j`-th
    /// chord joining sorted vertices `j` and `j+1` (cyclically) — the
    /// only record of the tile's vertices, see
    /// [`TileUniverse::tile_vertices`].
    chord_idx: Vec<u32>,
    /// Words per chord bitmask: `⌈m/64⌉`.
    stride: usize,
    /// Per-tile chord bitmasks (priority space): tile `i`'s mask is
    /// `masks[i·stride..(i+1)·stride]`.
    masks: Vec<u64>,
    /// Per-tile `(lo, hi)` word span of the mask: every set bit of tile
    /// `i`'s mask lies in words `lo..hi`. Dominance subset tests and
    /// scratch clears touch only this span instead of the full width.
    mask_span: Vec<(u32, u32)>,
    /// Per-tile total shortest-path load `Σ dist(chord)`.
    load: Vec<u32>,
    /// Per-tile wasted ring capacity `n − min(load, n)`.
    waste: Vec<u32>,
    /// Per-tile number of diameter-class chords.
    diam_count: Vec<u32>,

    /// Lazily-built dihedral action tables (`None` inside the cell when
    /// the group order `2n` exceeds the 64-bit subgroup masks).
    dihedral: OnceLock<Option<DihedralTables>>,
}

/// The action of the dihedral group `D_n = Aut(C_n)` on the universe,
/// precomputed as flat permutation tables so the exact search can do
/// symmetry reduction with plain array lookups and word operations.
///
/// Group elements are indexed `g ∈ 0..2n`: `g < n` is the rotation
/// `v ↦ v + g (mod n)`; `g = n + r` is the reflection-then-rotation
/// `v ↦ r − v (mod n)`. Element `0` is the identity. Subgroups are
/// represented as `u64` bitmasks over the element indices (hence the
/// `2n ≤ 64` limit — every ring this workspace searches exactly fits).
///
/// The tables are only valid for the universe they were built from: the
/// tile enumeration criteria (`max_len`, `max_gap`) are `D_n`-invariant,
/// so the universe is closed under the action and every image is again a
/// universe index.
pub struct DihedralTables {
    /// Group order `2n`.
    order: u32,
    /// Number of chord slots `m`.
    num_chords: u32,
    /// Number of tiles `T`.
    num_tiles: u32,
    /// `chord_perm[g · m + c]`: image of priority chord `c` under `g`.
    chord_perm: Vec<u32>,
    /// `tile_perm[g · T + t]`: image of tile `t` under `g`.
    tile_perm: Vec<u32>,
    /// `chord_stab[c]`: bitmask of elements fixing priority chord `c`.
    chord_stab: Vec<u64>,
    /// `tile_stab[t]`: bitmask of elements fixing tile `t`.
    tile_stab: Vec<u64>,
    /// `canon_tile[t]`: the smallest tile index in `t`'s orbit — the
    /// canonical image; `canon_tile[t] == t` marks orbit representatives.
    canon_tile: Vec<u32>,
}

impl DihedralTables {
    fn build(u: &TileUniverse) -> Option<DihedralTables> {
        let n = u.ring.n();
        let order = 2 * n;
        if order > 64 {
            return None;
        }
        let m = u.num_chords();
        let t_count = u.len() as u32;
        let mut chord_perm = vec![0u32; (order * m) as usize];
        let mut tile_perm = vec![0u32; order as usize * t_count as usize];
        let mut chord_stab = vec![0u64; m as usize];
        let mut tile_stab = vec![0u64; t_count as usize];
        let mut canon_tile: Vec<u32> = (0..t_count).collect();
        let mut image = Vec::with_capacity(n as usize);
        for g in 0..order {
            // Vertex action of element g (see the type docs).
            let map = |v: u32| -> u32 {
                if g < n {
                    u.ring.add(v, g)
                } else {
                    u.ring.sub(g - n, v)
                }
            };
            for c in 0..m {
                let e = Edge::from_dense_index(u.dense_of_pri(c) as usize, n as usize);
                let img = Edge::new(map(e.u()), map(e.v()));
                let img_pri = u.pri_of_dense(img.dense_index(n as usize) as u32);
                chord_perm[(g * m + c) as usize] = img_pri;
                if img_pri == c {
                    chord_stab[c as usize] |= 1 << g;
                }
            }
            for t in 0..t_count {
                image.clear();
                image.extend(u.tile_vertices(t).map(map));
                image.sort_unstable();
                let img = u
                    .index_of_sorted(&image)
                    .expect("tile universe is closed under the dihedral action");
                tile_perm[g as usize * t_count as usize + t as usize] = img;
                if img == t {
                    tile_stab[t as usize] |= 1 << g;
                }
                if img < canon_tile[t as usize] {
                    canon_tile[t as usize] = img;
                }
            }
        }
        Some(DihedralTables {
            order,
            num_chords: m,
            num_tiles: t_count,
            chord_perm,
            tile_perm,
            chord_stab,
            tile_stab,
            canon_tile,
        })
    }

    /// Group order `2n`.
    #[inline]
    pub fn order(&self) -> u32 {
        self.order
    }

    /// Number of tiles the tables act on.
    #[inline]
    pub fn num_tiles(&self) -> u32 {
        self.num_tiles
    }

    /// Image of priority chord `c` under element `g`.
    #[inline]
    pub fn chord_image(&self, g: u32, c: u32) -> u32 {
        self.chord_perm[(g * self.num_chords + c) as usize]
    }

    /// Image of tile `t` under element `g`.
    #[inline]
    pub fn tile_image(&self, g: u32, t: u32) -> u32 {
        self.tile_perm[g as usize * self.num_tiles as usize + t as usize]
    }

    /// Subgroup mask of the elements fixing priority chord `c`.
    #[inline]
    pub fn chord_stab(&self, c: u32) -> u64 {
        self.chord_stab[c as usize]
    }

    /// Subgroup mask of the elements fixing tile `t`.
    #[inline]
    pub fn tile_stab(&self, t: u32) -> u64 {
        self.tile_stab[t as usize]
    }

    /// The canonical (smallest-index) image of tile `t`'s orbit.
    #[inline]
    pub fn canonical_tile(&self, t: u32) -> u32 {
        self.canon_tile[t as usize]
    }

    /// Whether tile `t` is its orbit's representative.
    #[inline]
    pub fn is_orbit_rep(&self, t: u32) -> bool {
        self.canon_tile[t as usize] == t
    }

    /// Iterator over the orbit representatives (canonical tiles).
    pub fn orbit_reps(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.num_tiles).filter(move |&t| self.is_orbit_rep(t))
    }

    /// Stabilizer mask of the highest-priority diameter chord (priority
    /// index 0), or `None` when the ring has no diameter class. This is
    /// the subgroup the root branch of an even complete instance is
    /// reduced by: order 4 (identity, the `n/2` rotation, and the two
    /// reflections through the chord's axis and its perpendicular).
    pub fn diameter_chord_stab(&self, u: &TileUniverse) -> Option<u64> {
        (u.diam_chords() > 0).then(|| self.chord_stab(0))
    }

    /// Subgroup mask of the elements preserving a demand level function
    /// over priority chords — the symmetry group of a search's initial
    /// state. For complete and λ-fold specs this is all of `D_n`.
    pub fn demand_preserving(&self, demand_of_pri: impl Fn(u32) -> u32) -> u64 {
        let mut mask = 0u64;
        'g: for g in 0..self.order {
            for c in 0..self.num_chords {
                if demand_of_pri(self.chord_image(g, c)) != demand_of_pri(c) {
                    continue 'g;
                }
            }
            mask |= 1 << g;
        }
        mask
    }
}

/// Calls `visit` with the sorted vertex list of every tile of `C_n` with
/// `3..=max_len` vertices and all gaps `≤ max_gap`, in lexicographic
/// order: a depth-first walk over increasing vertex choices that reports
/// a prefix before its extensions.
fn for_each_tile(ring: Ring, max_len: usize, max_gap: u32, visit: &mut impl FnMut(&[u32])) {
    fn rec(
        ring: Ring,
        max_len: usize,
        max_gap: u32,
        next_min: u32,
        current: &mut Vec<u32>,
        visit: &mut impl FnMut(&[u32]),
    ) {
        if current.len() >= 3 {
            // Closing gap from last vertex back to first.
            let close = ring.cw_gap(*current.last().unwrap(), current[0]);
            if close <= max_gap {
                visit(current);
            }
        }
        if current.len() == max_len {
            return;
        }
        for v in next_min..ring.n() {
            // Gap from previous chosen vertex.
            if let Some(&prev) = current.last() {
                if ring.cw_gap(prev, v) > max_gap {
                    // gaps only grow as v grows
                    break;
                }
            }
            current.push(v);
            rec(ring, max_len, max_gap, v + 1, current, visit);
            current.pop();
        }
    }
    // First vertex ranges over all positions (subsets are sorted, so the
    // first vertex is the minimum).
    let mut current: Vec<u32> = Vec::with_capacity(max_len);
    for v0 in 0..ring.n() {
        current.push(v0);
        rec(ring, max_len, max_gap, v0 + 1, &mut current, visit);
        current.pop();
    }
}

impl TileUniverse {
    /// Enumerates all tiles with `3 ≤ |S| ≤ max_len` vertices.
    ///
    /// For minimum-covering searches `max_len = n` is exact; the paper's
    /// constructions only ever need `max_len = 4`.
    pub fn new(ring: Ring, max_len: usize) -> Self {
        Self::with_max_gap(ring, max_len, ring.n())
    }

    /// As [`TileUniverse::new`] but only tiles whose gaps are all ≤
    /// `max_gap`. With `max_gap = ⌊n/2⌋` every chord is routed on a
    /// shortest path (no "wasted" capacity) — the shape of all odd-`n`
    /// optimal coverings.
    ///
    /// Two passes over the enumeration: the first counts tiles and
    /// per-tile chord slots, so the second fills every table at its
    /// exact final size — a build makes the same few allocations at any
    /// tile count.
    pub fn with_max_gap(ring: Ring, max_len: usize, max_gap: u32) -> Self {
        assert!(max_len >= 3, "tiles need >= 3 vertices");
        let n = ring.n();
        let nu = n as usize;
        let m = nu * (nu - 1) / 2;

        // Priority permutation: stable sort of dense indices by decreasing
        // distance puts diameter-class chords (maximal distance) first and
        // keeps ties in dense order — the exact branch order the original
        // per-node scan used, now implicit in bit position.
        let mut dense_by_priority: Vec<u32> = (0..m as u32).collect();
        let dense_dist: Vec<u32> = (0..m)
            .map(|i| {
                let e = Edge::from_dense_index(i, nu);
                ring.distance(e.u(), e.v())
            })
            .collect();
        dense_by_priority.sort_by_key(|&i| std::cmp::Reverse(dense_dist[i as usize]));
        let dense_of_pri = dense_by_priority;
        let mut pri_of_dense = vec![0u32; m];
        for (pri, &dense) in dense_of_pri.iter().enumerate() {
            pri_of_dense[dense as usize] = pri as u32;
        }
        let dist_of_pri: Vec<u32> = dense_of_pri
            .iter()
            .map(|&d| dense_dist[d as usize])
            .collect();
        let ends_of_pri: Vec<(u32, u32)> = dense_of_pri
            .iter()
            .map(|&d| {
                let e = Edge::from_dense_index(d as usize, nu);
                (e.u(), e.v())
            })
            .collect();
        let diam_chords = dist_of_pri
            .iter()
            .take_while(|&&d| ring.is_diameter_class(d))
            .count() as u32;

        let mut vertex_masks = vec![ChordSet::empty(m as u32); nu];
        // Build-time lookup `pri_of_pair[u·n + v]` for either order of
        // the endpoints.
        let mut pri_of_pair = vec![0u32; nu * nu];
        for (dense, &pri) in pri_of_dense.iter().enumerate() {
            let e = Edge::from_dense_index(dense, nu);
            let (a, b) = (e.u() as usize, e.v() as usize);
            vertex_masks[a].insert(pri);
            vertex_masks[b].insert(pri);
            pri_of_pair[a * nu + b] = pri;
            pri_of_pair[b * nu + a] = pri;
        }

        // Pass 1: sizes.
        let (mut t_count, mut slots) = (0usize, 0usize);
        for_each_tile(ring, max_len, max_gap, &mut |vs| {
            t_count += 1;
            slots += vs.len();
        });
        assert!(
            slots <= u32::MAX as usize,
            "universe too large for 32-bit offsets"
        );

        // Pass 2: per-tile tables, plus per-chord candidate counts.
        let stride = m.div_ceil(64);
        let mut tile_off = Vec::with_capacity(t_count + 1);
        let mut chord_idx = Vec::with_capacity(slots);
        let mut masks = vec![0u64; t_count * stride];
        let mut mask_span = Vec::with_capacity(t_count);
        let mut load = Vec::with_capacity(t_count);
        let mut waste = Vec::with_capacity(t_count);
        let mut diam_count = Vec::with_capacity(t_count);
        let mut cand_off = vec![0u32; m + 1];
        tile_off.push(0u32);
        for_each_tile(ring, max_len, max_gap, &mut |vs| {
            let i = mask_span.len();
            let mask = &mut masks[i * stride..(i + 1) * stride];
            let mut tile_load = 0u32;
            let mut tile_diam = 0u32;
            let k = vs.len();
            for j in 0..k {
                let (a, b) = (vs[j] as usize, vs[(j + 1) % k] as usize);
                let pri = pri_of_pair[a * nu + b];
                chord_idx.push(pri);
                mask[pri as usize / 64] |= 1u64 << (pri % 64);
                cand_off[pri as usize + 1] += 1;
                tile_load += dist_of_pri[pri as usize];
                tile_diam += (pri < diam_chords) as u32;
            }
            tile_off.push(chord_idx.len() as u32);
            let lo = mask.iter().position(|&w| w != 0).unwrap_or(0) as u32;
            let hi = mask
                .iter()
                .rposition(|&w| w != 0)
                .map(|p| p as u32 + 1)
                .unwrap_or(0);
            mask_span.push((lo, hi));
            load.push(tile_load);
            waste.push(n - tile_load.min(n));
            diam_count.push(tile_diam);
        });
        debug_assert_eq!(mask_span.len(), t_count);

        // Per-chord candidate lists: prefix sums, then one pass over the
        // tiles in order keeps every list sorted by tile index.
        let max_candidates = cand_off.iter().copied().max().unwrap_or(0);
        for c in 0..m {
            cand_off[c + 1] += cand_off[c];
        }
        let mut cursor = cand_off[..m].to_vec();
        let mut cands = vec![0u32; slots];
        for i in 0..t_count {
            for &c in &chord_idx[tile_off[i] as usize..tile_off[i + 1] as usize] {
                cands[cursor[c as usize] as usize] = i as u32;
                cursor[c as usize] += 1;
            }
        }

        let u = TileUniverse {
            ring,
            pri_of_dense,
            dense_of_pri,
            dist_of_pri,
            ends_of_pri,
            diam_chords,
            cand_off,
            cands,
            max_candidates,
            vertex_masks,
            tile_off,
            chord_idx,
            stride,
            masks,
            mask_span,
            load,
            waste,
            diam_count,
            dihedral: OnceLock::new(),
        };
        debug_assert!(
            (1..u.len() as u32).all(|i| u.tile_vertices(i - 1).lt(u.tile_vertices(i))),
            "tiles are enumerated in lexicographic order"
        );
        u
    }

    /// The dihedral action tables, built on first use (`None` for rings
    /// with `2n > 64`, where the `u64` subgroup masks don't fit — far
    /// beyond any instance the exact search can finish anyway).
    pub fn dihedral(&self) -> Option<&DihedralTables> {
        self.dihedral
            .get_or_init(|| DihedralTables::build(self))
            .as_ref()
    }

    /// The ring.
    pub fn ring(&self) -> Ring {
        self.ring
    }

    /// Heap footprint of this universe in bytes — the figure a
    /// byte-budgeted universe cache charges per entry. Every table is
    /// allocated at its exact size, so this is the sum of their
    /// lengths; it deliberately excludes the lazily-built dihedral
    /// tables, which are a lower-order term.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let u32s = self.pri_of_dense.len()
            + self.dense_of_pri.len()
            + self.dist_of_pri.len()
            + self.cand_off.len()
            + self.cands.len()
            + self.tile_off.len()
            + self.chord_idx.len()
            + self.load.len()
            + self.waste.len()
            + self.diam_count.len();
        let pairs = self.ends_of_pri.len() + self.mask_span.len();
        let vertex_masks = self.vertex_masks.len() * (size_of::<ChordSet>() + self.stride * 8);
        size_of::<Self>()
            + u32s * size_of::<u32>()
            + pairs * size_of::<(u32, u32)>()
            + self.masks.len() * size_of::<u64>()
            + vertex_masks
    }

    /// Number of tiles.
    pub fn len(&self) -> usize {
        self.mask_span.len()
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.mask_span.is_empty()
    }

    /// Indices of tiles covering the given request.
    pub fn candidates(&self, e: Edge) -> &[u32] {
        self.candidates_pri(self.pri_of_dense[e.dense_index(self.ring.n() as usize)])
    }

    /// Indices of tiles covering the chord with priority index `pri`.
    #[inline]
    pub fn candidates_pri(&self, pri: u32) -> &[u32] {
        let c = pri as usize;
        &self.cands[self.cand_off[c] as usize..self.cand_off[c + 1] as usize]
    }

    /// The tile with index `i`, as an owned value (for output paths; the
    /// search reads [`TileUniverse::tile_vertices`] and the chord tables).
    pub fn tile(&self, i: u32) -> Tile {
        Tile::from_vertices(self.ring, self.tile_vertices(i).collect())
    }

    /// Tile `i`'s vertices in increasing ring order, read off its chord
    /// list: chord `j` joins vertices `j` and `j+1`, and chord ends are
    /// stored as `(min, max)`. So vertex `j` is chord `j`'s first end for
    /// every chord but the last, which closes the cycle from the largest
    /// vertex back to the smallest: its second end is the last vertex.
    #[inline]
    pub fn tile_vertices(&self, i: u32) -> impl Iterator<Item = u32> + '_ {
        let chords = self.tile_chords(i);
        let last = chords.len() - 1;
        chords.iter().enumerate().map(move |(j, &c)| {
            let (first, second) = self.ends_of_pri[c as usize];
            if j < last {
                first
            } else {
                second
            }
        })
    }

    /// The index of `tile` in this universe, if enumerated.
    pub fn index_of(&self, tile: &Tile) -> Option<u32> {
        self.index_of_sorted(tile.vertices())
    }

    /// The index of the tile with sorted vertex list `verts`: a binary
    /// search, since tile indices follow lexicographic vertex order.
    fn index_of_sorted(&self, verts: &[u32]) -> Option<u32> {
        let (mut lo, mut hi) = (0u32, self.len() as u32);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.tile_vertices(mid).cmp(verts.iter().copied()) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    /// Number of chord slots (`n(n−1)/2`).
    pub fn num_chords(&self) -> u32 {
        self.pri_of_dense.len() as u32
    }

    /// Dense chord index → priority index.
    pub fn pri_of_dense(&self, dense: u32) -> u32 {
        self.pri_of_dense[dense as usize]
    }

    /// Priority index → dense chord index.
    pub fn dense_of_pri(&self, pri: u32) -> u32 {
        self.dense_of_pri[pri as usize]
    }

    /// Ring distance of the chord with priority index `pri`.
    pub fn dist_of_pri(&self, pri: u32) -> u32 {
        self.dist_of_pri[pri as usize]
    }

    /// The two ring vertices `(u, v)` (with `u < v`) of the chord with
    /// priority index `pri`.
    #[inline]
    pub fn chord_ends_of_pri(&self, pri: u32) -> (u32, u32) {
        self.ends_of_pri[pri as usize]
    }

    /// Length of the longest per-chord candidate list — an upper bound on
    /// how many candidates any single search node can score, and the
    /// one-shot sizing of per-node scratch arenas.
    #[inline]
    pub fn max_candidates(&self) -> u32 {
        self.max_candidates
    }

    /// Number of diameter-class chords; priority indices `< diam_chords()`
    /// are exactly those chords.
    pub fn diam_chords(&self) -> u32 {
        self.diam_chords
    }

    /// Tile `i`'s chords as priority indices (precomputed, no ring math).
    #[inline]
    pub fn tile_chords(&self, i: u32) -> &[u32] {
        let i = i as usize;
        &self.chord_idx[self.tile_off[i] as usize..self.tile_off[i + 1] as usize]
    }

    /// Tile `i`'s chord bitmask (priority space), as the raw words of a
    /// [`ChordSet`] of width [`TileUniverse::num_chords`].
    #[inline]
    pub fn tile_mask(&self, i: u32) -> &[u64] {
        let i = i as usize;
        &self.masks[i * self.stride..(i + 1) * self.stride]
    }

    /// The `(lo, hi)` word span of tile `i`'s mask: every set bit lies in
    /// words `lo..hi` of the priority chord space.
    #[inline]
    pub fn tile_mask_span(&self, i: u32) -> (u32, u32) {
        self.mask_span[i as usize]
    }

    /// Tile `i`'s total shortest-path load `Σ dist(chord)`.
    #[inline]
    pub fn tile_load(&self, i: u32) -> u32 {
        self.load[i as usize]
    }

    /// Tile `i`'s wasted ring capacity `n − min(load, n)`.
    #[inline]
    pub fn tile_waste(&self, i: u32) -> u32 {
        self.waste[i as usize]
    }

    /// Number of diameter-class chords of tile `i`.
    #[inline]
    pub fn tile_diam_count(&self, i: u32) -> u32 {
        self.diam_count[i as usize]
    }

    /// Chords incident to ring vertex `v`, as a priority-space mask.
    #[inline]
    pub fn vertex_mask(&self, v: u32) -> &ChordSet {
        &self.vertex_masks[v as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::set_bits;

    /// Tiles of size k on C_n are exactly the k-subsets: C(n,3) + C(n,4)
    /// for max_len = 4.
    #[test]
    fn tile_counts_are_binomials() {
        fn binom(n: u64, k: u64) -> u64 {
            let mut r = 1u64;
            for i in 0..k {
                r = r * (n - i) / (i + 1);
            }
            r
        }
        for n in [5u32, 6, 8, 9] {
            let u = TileUniverse::new(Ring::new(n), 4);
            assert_eq!(u.len() as u64, binom(n as u64, 3) + binom(n as u64, 4), "n={n}");
            let full = TileUniverse::new(Ring::new(n), n as usize);
            let expect: u64 = (3..=n as u64).map(|k| binom(n as u64, k)).sum();
            assert_eq!(full.len() as u64, expect, "n={n} full");
        }
    }

    /// The vertex lists derived from the chord table reproduce the
    /// enumeration exactly, tile by tile, and every tile's lookup finds
    /// its own index: on every full universe up to n = 12 and on the
    /// restricted `(max_len, max_gap)` shapes of the universe-churn
    /// workload at n = 14.
    #[test]
    fn derived_vertex_lists_match_the_enumeration() {
        let full = (3u32..=12).map(|n| (n, n as usize, n));
        let restricted = [(4, 7), (5, 14), (6, 14), (5, 8)].map(|(len, gap)| (14, len, gap));
        for (n, max_len, max_gap) in full.chain(restricted) {
            let ring = Ring::new(n);
            let u = TileUniverse::with_max_gap(ring, max_len, max_gap);
            let mut i = 0u32;
            for_each_tile(ring, max_len, max_gap, &mut |vs| {
                assert!(
                    u.tile_vertices(i).eq(vs.iter().copied()),
                    "n={n} max_len={max_len} max_gap={max_gap} tile {i}: {:?} vs {vs:?}",
                    u.tile_vertices(i).collect::<Vec<_>>()
                );
                i += 1;
            });
            assert_eq!(
                i as usize,
                u.len(),
                "n={n} max_len={max_len} max_gap={max_gap}"
            );
            for i in 0..u.len() as u32 {
                assert_eq!(u.index_of(&u.tile(i)), Some(i), "n={n} tile {i}");
            }
        }
    }

    #[test]
    fn max_gap_filters_long_arcs() {
        let ring = Ring::new(9);
        let u = TileUniverse::with_max_gap(ring, 4, 4);
        assert!((0..u.len() as u32).all(|i| u.tile(i).max_gap(ring) <= 4));
        // {0, 1, 2} has closing gap 7 > 4: excluded.
        assert!(!(0..u.len() as u32).any(|i| u.tile_vertices(i).eq([0, 1, 2])));
        // {0, 3, 6} has gaps 3,3,3: included.
        assert!((0..u.len() as u32).any(|i| u.tile_vertices(i).eq([0, 3, 6])));
    }

    #[test]
    fn candidates_actually_cover() {
        let ring = Ring::new(7);
        let u = TileUniverse::new(ring, 4);
        for uu in 0..7u32 {
            for vv in (uu + 1)..7u32 {
                let e = Edge::new(uu, vv);
                let cands = u.candidates(e);
                assert!(!cands.is_empty());
                for &i in cands {
                    let covers = u
                        .tile(i)
                        .chords(ring)
                        .iter()
                        .any(|c| c.to_edge() == e);
                    assert!(covers, "tile {:?} listed for {e} but does not cover it", u.tile(i));
                }
            }
        }
    }

    /// A chord {u,v} is covered by a tile iff u,v are ring-consecutive in
    /// it; count candidates for a fixed chord on a small ring by brute force.
    #[test]
    fn candidate_counts_match_bruteforce() {
        let ring = Ring::new(6);
        let u = TileUniverse::new(ring, 4);
        let e = Edge::new(0, 2);
        let brute = (0..u.len() as u32)
            .filter(|&i| u.tile(i).chords(ring).iter().any(|c| c.to_edge() == e))
            .count();
        assert_eq!(u.candidates(e).len(), brute);
    }

    #[test]
    fn priority_permutation_is_consistent() {
        for n in [7u32, 8, 12] {
            let ring = Ring::new(n);
            let u = TileUniverse::new(ring, 4);
            let m = u.num_chords();
            assert_eq!(m as usize, n as usize * (n as usize - 1) / 2);
            // Round trip and monotone-decreasing distance in priority order.
            for pri in 0..m {
                assert_eq!(u.pri_of_dense(u.dense_of_pri(pri)), pri, "n={n}");
                if pri > 0 {
                    assert!(
                        u.dist_of_pri(pri - 1) >= u.dist_of_pri(pri),
                        "n={n}: priority order must not increase distance"
                    );
                }
                let e = Edge::from_dense_index(u.dense_of_pri(pri) as usize, n as usize);
                assert_eq!(u.dist_of_pri(pri), ring.distance(e.u(), e.v()), "n={n}");
            }
            // The diameter prefix is exactly the diameter class.
            let expect_diam = if n % 2 == 0 { n / 2 } else { 0 };
            assert_eq!(u.diam_chords(), expect_diam, "n={n}");
            for pri in 0..m {
                assert_eq!(
                    pri < u.diam_chords(),
                    ring.is_diameter_class(u.dist_of_pri(pri)),
                    "n={n} pri={pri}"
                );
            }
        }
    }

    #[test]
    fn dihedral_tables_are_group_actions() {
        for n in [6u32, 7, 8] {
            let ring = Ring::new(n);
            let u = TileUniverse::new(ring, n as usize);
            let d = u.dihedral().expect("2n <= 64");
            assert_eq!(d.order(), 2 * n);
            let m = u.num_chords();
            let t_count = u.len() as u32;
            // Element 0 is the identity.
            for c in 0..m {
                assert_eq!(d.chord_image(0, c), c);
            }
            for t in 0..t_count {
                assert_eq!(d.tile_image(0, t), t);
            }
            for g in 0..d.order() {
                // Permutations (bijective) and distance-preserving.
                let mut seen_c = vec![false; m as usize];
                for c in 0..m {
                    let img = d.chord_image(g, c);
                    assert!(!seen_c[img as usize], "n={n} g={g}: chord collision");
                    seen_c[img as usize] = true;
                    assert_eq!(u.dist_of_pri(img), u.dist_of_pri(c), "n={n} g={g}");
                }
                let mut seen_t = vec![false; t_count as usize];
                for t in 0..t_count {
                    let img = d.tile_image(g, t);
                    assert!(!seen_t[img as usize], "n={n} g={g}: tile collision");
                    seen_t[img as usize] = true;
                    // Tile metadata is invariant under the action.
                    assert_eq!(u.tile_load(img), u.tile_load(t), "n={n} g={g} t={t}");
                    assert_eq!(u.tile_waste(img), u.tile_waste(t), "n={n} g={g} t={t}");
                    assert_eq!(
                        u.tile_diam_count(img),
                        u.tile_diam_count(t),
                        "n={n} g={g} t={t}"
                    );
                    // The tile's chord mask maps chord-wise.
                    let mut mapped: Vec<u32> =
                        u.tile_chords(t).iter().map(|&c| d.chord_image(g, c)).collect();
                    mapped.sort_unstable();
                    let img_chords: Vec<u32> = set_bits(u.tile_mask(img)).collect();
                    assert_eq!(mapped, img_chords, "n={n} g={g} t={t}");
                }
            }
            // Stabilizer masks: bit g set iff g fixes the object.
            for t in (0..t_count).step_by(7) {
                for g in 0..d.order() {
                    assert_eq!(
                        d.tile_stab(t) >> g & 1 == 1,
                        d.tile_image(g, t) == t,
                        "n={n} t={t} g={g}"
                    );
                }
            }
            // Orbits partition the universe; canonical images are orbit
            // minima and idempotent.
            let mut orbit_total = 0usize;
            for rep in d.orbit_reps() {
                assert_eq!(d.canonical_tile(rep), rep);
                let orbit: std::collections::BTreeSet<u32> =
                    (0..d.order()).map(|g| d.tile_image(g, rep)).collect();
                assert!(orbit.iter().all(|&t| d.canonical_tile(t) == rep), "n={n}");
                assert_eq!(*orbit.iter().next().unwrap(), rep, "rep is the minimum");
                assert_eq!(2 * n as usize % orbit.len(), 0, "orbit divides |D_n|");
                orbit_total += orbit.len();
            }
            assert_eq!(orbit_total, t_count as usize, "orbits partition, n={n}");
            // Complete demand is preserved by the whole group; the
            // diameter-chord stabilizer has order 4 exactly for even n.
            let full = d.demand_preserving(|_| 1);
            assert_eq!(full.count_ones(), 2 * n, "n={n}");
            match d.diameter_chord_stab(&u) {
                Some(stab) => {
                    assert!(n.is_multiple_of(2));
                    assert_eq!(stab.count_ones(), 4, "n={n}");
                }
                None => assert!(!n.is_multiple_of(2)),
            }
        }
    }

    /// An asymmetric demand function shrinks the preserved subgroup: a
    /// single demanded chord is preserved exactly by its stabilizer.
    #[test]
    fn demand_preserving_respects_asymmetry() {
        let u = TileUniverse::new(Ring::new(8), 4);
        let d = u.dihedral().unwrap();
        for c in [0u32, 5, 17] {
            let mask = d.demand_preserving(|pri| (pri == c) as u32);
            assert_eq!(mask, d.chord_stab(c), "chord {c}");
        }
    }

    #[test]
    fn tile_metadata_matches_recomputation() {
        for n in [6u32, 9, 12] {
            let ring = Ring::new(n);
            let u = TileUniverse::new(ring, 5);
            for i in 0..u.len() as u32 {
                let t = u.tile(i);
                // Chord list ↔ mask ↔ tile.chords agreement.
                let mut expect: Vec<u32> = t
                    .chords(ring)
                    .iter()
                    .map(|c| u.pri_of_dense(c.to_edge().dense_index(n as usize) as u32))
                    .collect();
                let mut got = u.tile_chords(i).to_vec();
                assert_eq!(got.len(), t.len(), "n={n} tile {i}");
                expect.sort_unstable();
                got.sort_unstable();
                assert_eq!(got, expect, "n={n} tile {i}");
                assert_eq!(
                    set_bits(u.tile_mask(i)).collect::<Vec<_>>(),
                    expect,
                    "n={n} tile {i} mask"
                );
                // Load / waste / diameter count.
                assert_eq!(u.tile_load(i), t.shortest_load(ring), "n={n} tile {i}");
                assert_eq!(
                    u.tile_waste(i),
                    n - t.shortest_load(ring).min(n),
                    "n={n} tile {i}"
                );
                let diam = t
                    .chords(ring)
                    .iter()
                    .filter(|c| ring.is_diameter_class(c.distance(ring)))
                    .count() as u32;
                assert_eq!(u.tile_diam_count(i), diam, "n={n} tile {i}");
                // Index lookup round-trips.
                assert_eq!(u.index_of(&t), Some(i), "n={n} tile {i}");
            }
        }
    }
}
