//! Testbed geometry.
//!
//! The paper evaluates over random assignments of nodes to ~20 marked
//! locations in an indoor testbed (Fig. 10), mixing line-of-sight and
//! non-line-of-sight links. We model the same methodology: a fixed set of
//! candidate locations in a rectangular floor plan, some tagged NLOS
//! (behind walls), and experiments draw random assignments of nodes to
//! locations.

use crate::environment::EnvironmentError;
use rand::seq::SliceRandom;
use rand::Rng;

/// A 2-D position in meters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// x coordinate (m).
    pub x: f64,
    /// y coordinate (m).
    pub y: f64,
}

impl Point {
    /// Creates a point.
    pub(crate) const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point (m).
    pub fn distance(&self, other: &Point) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }
}

/// One candidate node location in the testbed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Location {
    /// Position on the floor plan.
    pub pos: Point,
    /// Whether this spot sits behind an interior wall (adds extra loss
    /// and richer multipath on its links).
    pub nlos: bool,
}

/// The testbed floor plan: a set of candidate locations.
#[derive(Debug, Clone, PartialEq)]
pub struct Testbed {
    locations: Vec<Location>,
}

impl Testbed {
    /// The default floor plan modeled after the paper's Fig. 10: twenty
    /// locations spread over a ~16 m × 10 m office area, six of them
    /// behind interior walls (NLOS).
    pub(crate) fn sigcomm11() -> Self {
        let mut locations = Vec::new();
        // Open-plan area (LOS cluster).
        let los = [
            (1.0, 1.5),
            (3.0, 2.0),
            (5.5, 1.0),
            (7.0, 3.0),
            (9.0, 1.5),
            (11.0, 2.5),
            (13.0, 1.0),
            (15.0, 2.0),
            (2.0, 5.0),
            (4.5, 6.0),
            (7.5, 5.5),
            (10.0, 6.5),
            (12.5, 5.0),
            (15.0, 6.0),
        ];
        for &(x, y) in &los {
            locations.push(Location {
                pos: Point::new(x, y),
                nlos: false,
            });
        }
        // Offices along the far wall (NLOS cluster).
        let nlos = [
            (1.5, 9.0),
            (4.0, 9.5),
            (6.5, 9.0),
            (9.5, 9.5),
            (12.0, 9.0),
            (14.5, 9.5),
        ];
        for &(x, y) in &nlos {
            locations.push(Location {
                pos: Point::new(x, y),
                nlos: true,
            });
        }
        Testbed { locations }
    }

    /// A two-wing extension of the Fig. 10 floor plan: the twenty
    /// [`sigcomm11`](Testbed::sigcomm11) locations plus a mirrored
    /// second wing offset 18 m in x — forty candidate locations in all,
    /// twelve of them NLOS. Dense sweep scenarios (up to 32 nodes) need
    /// more placement slots than the paper's single wing offers; the
    /// first twenty locations are identical to `sigcomm11()`, so draws
    /// that fit the original map remain comparable.
    pub(crate) fn sigcomm11_extended() -> Self {
        let base = Self::sigcomm11();
        let mut locations = base.locations.clone();
        locations.extend(base.locations.iter().map(|l| Location {
            pos: Point::new(l.pos.x + 18.0, l.pos.y),
            nlos: l.nlos,
        }));
        Testbed { locations }
    }

    /// The smallest stock floor plan with at least `n` candidate
    /// locations: the paper's map when it fits, the two-wing extension
    /// otherwise.
    ///
    /// # Errors
    /// [`EnvironmentError::TooManyNodes`] when even the extension is
    /// too small.
    pub(crate) fn try_fitting(n: usize) -> Result<Self, EnvironmentError> {
        let tb = Self::sigcomm11();
        if n <= tb.len() {
            return Ok(tb);
        }
        let ext = Self::sigcomm11_extended();
        ext.ensure_capacity(n)?;
        Ok(ext)
    }

    /// An open 100 m × 65 m outdoor field: an 8 × 5 grid of forty
    /// candidate locations, all line-of-sight — link ranges several
    /// times the indoor map's. The map of the `outdoor` environment.
    pub(crate) fn outdoor_field() -> Self {
        let mut locations = Vec::with_capacity(40);
        for yi in 0..5u32 {
            for xi in 0..8u32 {
                locations.push(Location {
                    pos: Point::new(5.0 + 12.0 * xi as f64, 4.0 + 15.0 * yi as f64),
                    nlos: false,
                });
            }
        }
        Testbed { locations }
    }

    /// Builds a testbed from explicit locations.
    pub(crate) fn from_locations(locations: Vec<Location>) -> Self {
        Testbed { locations }
    }

    /// All candidate locations.
    pub(crate) fn locations(&self) -> &[Location] {
        &self.locations
    }

    /// Number of candidate locations.
    pub(crate) fn len(&self) -> usize {
        self.locations.len()
    }

    /// Checks that the map can place `requested` nodes — the one
    /// capacity check every placement path shares.
    ///
    /// # Errors
    /// [`EnvironmentError::TooManyNodes`] otherwise.
    pub(crate) fn ensure_capacity(&self, requested: usize) -> Result<(), EnvironmentError> {
        if requested <= self.locations.len() {
            Ok(())
        } else {
            Err(EnvironmentError::TooManyNodes {
                requested,
                capacity: self.locations.len(),
            })
        }
    }

    /// Draws a random assignment of `n` nodes to distinct locations,
    /// mirroring the paper's "random assignment of nodes to locations in
    /// Fig. 10" methodology.
    ///
    /// # Errors
    /// [`EnvironmentError::TooManyNodes`] when the map has fewer than
    /// `n` locations (the RNG is not consumed in that case).
    pub(crate) fn try_random_assignment<R: Rng>(
        &self,
        n: usize,
        rng: &mut R,
    ) -> Result<Vec<Location>, EnvironmentError> {
        self.ensure_capacity(n)?;
        let mut picks = self.locations.clone();
        picks.shuffle(rng);
        picks.truncate(n);
        Ok(picks)
    }

    /// True when the straight line between two locations crosses the
    /// interior wall region (a simple y = 8 m wall with doorways), used by
    /// the path-loss model to decide LOS/NLOS per *link*.
    pub(crate) fn link_is_nlos(&self, a: &Location, b: &Location) -> bool {
        // If either endpoint is in an office, the link crosses the wall
        // unless both are in offices adjacent to each other.
        a.nlos != b.nlos || (a.nlos && b.nlos && a.pos.distance(&b.pos) > 4.0)
    }

    /// A procedurally generated city district of `n_cells` cells laid
    /// out on a square grid with [`MULTI_CELL_SPACING_M`] between cell
    /// centers. Each cell contributes [`MULTI_CELL_GROUP`] slots: slot
    /// `8k` is the cell's AP at the center, slots `8k+1..8k+8` are
    /// stations ringed 4–10 m around it (deterministic hash jitter, no
    /// RNG), roughly a third of them behind clutter (NLOS). The map of
    /// the `multi_cell` environment; the `city:` scenario family indexes
    /// cells positionally, so placements use the identity assignment
    /// rather than the paper's shuffle.
    pub(crate) fn multi_cell(n_cells: usize) -> Self {
        let cols = (n_cells as f64).sqrt().ceil().max(1.0) as usize;
        let mut locations = Vec::with_capacity(n_cells * MULTI_CELL_GROUP);
        for k in 0..n_cells {
            let cx = (k % cols) as f64 * MULTI_CELL_SPACING_M;
            let cy = (k / cols) as f64 * MULTI_CELL_SPACING_M;
            locations.push(Location {
                pos: Point::new(cx, cy),
                nlos: false,
            });
            for j in 1..MULTI_CELL_GROUP {
                let u = hash01((k * MULTI_CELL_GROUP + j) as u64);
                let angle = j as f64 * std::f64::consts::TAU / (MULTI_CELL_GROUP - 1) as f64
                    + u * std::f64::consts::FRAC_PI_4;
                let radius = 4.0 + 6.0 * hash01((k * MULTI_CELL_GROUP + j) as u64 ^ 0xA5A5);
                locations.push(Location {
                    pos: Point::new(cx + radius * angle.cos(), cy + radius * angle.sin()),
                    nlos: (k + j) % 3 == 0,
                });
            }
        }
        Testbed { locations }
    }
}

/// Slots per `multi_cell` cell: one AP plus seven stations.
pub const MULTI_CELL_GROUP: usize = 8;

/// Distance between adjacent `multi_cell` cell centers (m).
pub(crate) const MULTI_CELL_SPACING_M: f64 = 45.0;

/// A deterministic unit-interval hash — procedural map jitter without
/// touching any RNG stream (topologies stay a pure function of seed).
fn hash01(x: u64) -> f64 {
    let h = x
        .wrapping_add(1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(31)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A uniform-bucket spatial index over placed node positions, so sparse
/// topology construction can ask "which nodes sit within range of node
/// `i`" without the all-pairs scan that caps dense worlds at tens of
/// nodes.
///
/// Neighbor queries return indices in **ascending order** — the sparse
/// build in `nplus-medium` iterates candidates `j > i` ascending so its
/// RNG draw order (and therefore every topology) stays a pure function
/// of the seed, exactly like the dense loop it replaces.
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    cell: f64,
    min_x: f64,
    min_y: f64,
    cols: usize,
    rows: usize,
    buckets: Vec<Vec<usize>>,
    points: Vec<Point>,
}

impl SpatialGrid {
    /// Builds the index with `cell_size` meters per bucket (clamped to
    /// a sane minimum; pick the query range for one-ring lookups).
    pub fn build(points: &[Point], cell_size: f64) -> Self {
        let cell = if cell_size.is_finite() && cell_size > 1e-6 {
            cell_size
        } else {
            1.0
        };
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in points {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        if points.is_empty() {
            min_x = 0.0;
            min_y = 0.0;
            max_x = 0.0;
            max_y = 0.0;
        }
        let cols = (((max_x - min_x) / cell).floor() as usize + 1).max(1);
        let rows = (((max_y - min_y) / cell).floor() as usize + 1).max(1);
        let mut buckets = vec![Vec::new(); cols * rows];
        let mut grid = SpatialGrid {
            cell,
            min_x,
            min_y,
            cols,
            rows,
            buckets: Vec::new(),
            points: points.to_vec(),
        };
        for (i, p) in points.iter().enumerate() {
            let (bx, by) = grid.bucket_of(p);
            buckets[by * cols + bx].push(i);
        }
        grid.buckets = buckets;
        grid
    }

    fn bucket_of(&self, p: &Point) -> (usize, usize) {
        let bx = (((p.x - self.min_x) / self.cell).floor() as usize).min(self.cols - 1);
        let by = (((p.y - self.min_y) / self.cell).floor() as usize).min(self.rows - 1);
        (bx, by)
    }

    /// Indices `j > i` whose position lies within `range` meters of
    /// node `i`, in ascending order (the determinism contract above).
    pub fn neighbors_above(&self, i: usize, range: f64) -> Vec<usize> {
        let p = self.points[i];
        let reach = (range / self.cell).ceil() as usize;
        let (bx, by) = self.bucket_of(&p);
        let x0 = bx.saturating_sub(reach);
        let x1 = (bx + reach).min(self.cols - 1);
        let y0 = by.saturating_sub(reach);
        let y1 = (by + reach).min(self.rows - 1);
        let mut out = Vec::new();
        for y in y0..=y1 {
            for x in x0..=x1 {
                for &j in &self.buckets[y * self.cols + x] {
                    if j > i && self.points[j].distance(&p) <= range {
                        out.push(j);
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_testbed_has_twenty_locations() {
        let tb = Testbed::sigcomm11();
        assert_eq!(tb.len(), 20);
        assert_eq!(tb.locations().iter().filter(|l| l.nlos).count(), 6);
    }

    #[test]
    fn extended_testbed_doubles_the_floor_plan() {
        let base = Testbed::sigcomm11();
        let ext = Testbed::sigcomm11_extended();
        assert_eq!(ext.len(), 40);
        assert_eq!(ext.locations().iter().filter(|l| l.nlos).count(), 12);
        // The first wing is bit-identical to the paper's map.
        for (a, b) in base.locations().iter().zip(ext.locations()) {
            assert_eq!(a.pos.x, b.pos.x);
            assert_eq!(a.pos.y, b.pos.y);
            assert_eq!(a.nlos, b.nlos);
        }
        // A 32-node assignment fits the extension.
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(ext.try_random_assignment(32, &mut rng).unwrap().len(), 32);
    }

    #[test]
    fn fitting_picks_the_smallest_map() {
        assert_eq!(Testbed::try_fitting(6).unwrap().len(), 20);
        assert_eq!(Testbed::try_fitting(20).unwrap().len(), 20);
        assert_eq!(Testbed::try_fitting(21).unwrap().len(), 40);
        assert_eq!(Testbed::try_fitting(32).unwrap().len(), 40);
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn fitting_rejects_oversized_requests() {
        let _ = Testbed::try_fitting(41).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn try_fitting_reports_oversize_as_an_error() {
        assert_eq!(Testbed::try_fitting(20).unwrap().len(), 20);
        assert_eq!(Testbed::try_fitting(40).unwrap().len(), 40);
        assert_eq!(
            Testbed::try_fitting(41),
            Err(EnvironmentError::TooManyNodes {
                requested: 41,
                capacity: 40
            })
        );
        let tb = Testbed::sigcomm11();
        let mut rng = StdRng::seed_from_u64(0);
        let err = tb.try_random_assignment(21, &mut rng).unwrap_err();
        assert_eq!(err.to_string(), "cannot place 21 nodes on 20 locations");
    }

    #[test]
    fn outdoor_field_is_a_large_los_grid() {
        let tb = Testbed::outdoor_field();
        assert_eq!(tb.len(), 40);
        assert!(tb.locations().iter().all(|l| !l.nlos));
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(tb.try_random_assignment(32, &mut rng).unwrap().len(), 32);
    }

    #[test]
    fn distance_known_value() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn random_assignment_is_distinct() {
        let tb = Testbed::sigcomm11();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let picks = tb.try_random_assignment(6, &mut rng).unwrap();
            assert_eq!(picks.len(), 6);
            for i in 0..picks.len() {
                for j in (i + 1)..picks.len() {
                    assert!(
                        picks[i].pos.distance(&picks[j].pos) > 1e-9,
                        "two nodes on the same location"
                    );
                }
            }
        }
    }

    #[test]
    fn assignments_vary_with_seed() {
        let tb = Testbed::sigcomm11();
        let a = tb
            .try_random_assignment(4, &mut StdRng::seed_from_u64(1))
            .unwrap();
        let b = tb
            .try_random_assignment(4, &mut StdRng::seed_from_u64(2))
            .unwrap();
        let same = a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.pos.distance(&y.pos) < 1e-12);
        assert!(!same, "different seeds produced identical placements");
    }

    #[test]
    fn cross_wall_links_are_nlos() {
        let tb = Testbed::sigcomm11();
        let open = tb.locations().iter().find(|l| !l.nlos).unwrap();
        let office = tb.locations().iter().find(|l| l.nlos).unwrap();
        assert!(tb.link_is_nlos(open, office));
        assert!(!tb.link_is_nlos(open, open));
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn too_many_nodes_rejected() {
        let tb = Testbed::sigcomm11();
        let mut rng = StdRng::seed_from_u64(0);
        let _ = tb
            .try_random_assignment(21, &mut rng)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn multi_cell_map_is_deterministic_cells_of_eight() {
        let a = Testbed::multi_cell(128);
        let b = Testbed::multi_cell(128);
        assert_eq!(a.len(), 128 * MULTI_CELL_GROUP);
        // Procedural generation is a pure function: bit-identical maps.
        for (x, y) in a.locations().iter().zip(b.locations()) {
            assert_eq!(x.pos.x.to_bits(), y.pos.x.to_bits());
            assert_eq!(x.pos.y.to_bits(), y.pos.y.to_bits());
            assert_eq!(x.nlos, y.nlos);
        }
        // Every station sits 4-10 m from its own AP, and adjacent APs
        // are a full cell spacing apart.
        for k in 0..128 {
            let ap = a.locations()[k * MULTI_CELL_GROUP];
            assert!(!ap.nlos, "cell {k}: AP slots are LOS");
            for j in 1..MULTI_CELL_GROUP {
                let d = a.locations()[k * MULTI_CELL_GROUP + j]
                    .pos
                    .distance(&ap.pos);
                assert!((4.0..=10.0).contains(&d), "cell {k} station {j}: {d:.2} m");
            }
        }
        let d01 = a.locations()[0]
            .pos
            .distance(&a.locations()[MULTI_CELL_GROUP].pos);
        assert!((d01 - MULTI_CELL_SPACING_M).abs() < 1e-9);
        let n_nlos = a.locations().iter().filter(|l| l.nlos).count();
        assert!(n_nlos > 128, "clutter exists: {n_nlos} NLOS slots");
    }

    #[test]
    fn spatial_grid_matches_brute_force_ascending() {
        let tb = Testbed::multi_cell(64);
        let points: Vec<Point> = tb.locations().iter().map(|l| l.pos).collect();
        for range in [10.0, 60.0, 120.0] {
            let grid = SpatialGrid::build(&points, range);
            assert_eq!(grid.points.len(), points.len());
            for i in 0..points.len() {
                let got = grid.neighbors_above(i, range);
                let want: Vec<usize> = (i + 1..points.len())
                    .filter(|&j| points[j].distance(&points[i]) <= range)
                    .collect();
                assert_eq!(got, want, "node {i} at range {range}");
            }
        }
    }

    #[test]
    fn spatial_grid_handles_degenerate_inputs() {
        let empty = SpatialGrid::build(&[], 10.0);
        assert!(empty.points.is_empty());
        // All points coincident, silly cell size: still well-formed.
        let pts = vec![Point::new(2.0, 2.0); 4];
        let grid = SpatialGrid::build(&pts, 0.0);
        assert_eq!(grid.neighbors_above(0, 1.0), vec![1, 2, 3]);
        assert_eq!(grid.neighbors_above(3, 1.0), Vec::<usize>::new());
    }
}
