//! Feature rows interned by the bit patterns of their values.

use remp_par::Parallelism;

/// Marks a free slot of the open-addressing table.
const EMPTY: u32 = u32::MAX;

/// Distinct feature rows of one width, stored flat in first-seen order.
///
/// Two rows are the same row when every value has the same
/// [`f64::to_bits`]. So `0.0` and `-0.0` stay two rows; they compare
/// equal in every split and score alike, so keeping them apart costs one
/// row and changes no result.
#[derive(Clone, Debug)]
pub struct DistinctRows {
    n_features: usize,
    len: usize,
    /// Row `id` is `values[id * n_features..][..n_features]`.
    values: Vec<f64>,
    /// Open-addressing table of row ids, [`EMPTY`] where free. Its length
    /// is a power of two, and it is kept at most half full.
    slots: Vec<u32>,
}

impl DistinctRows {
    /// An empty set of rows with `n_features` values each.
    pub fn new(n_features: usize) -> DistinctRows {
        DistinctRows { n_features, len: 0, values: Vec::new(), slots: vec![EMPTY; 16] }
    }

    /// Interns `row(item)` for every item on `par`, returning the distinct
    /// rows and each item's row id. `fill` writes an item's values into a
    /// reused buffer, so no row is allocated on its own. Chunks intern on
    /// their own and are merged in chunk order, so the ids are in
    /// first-seen order under every thread count.
    pub fn collect_par<T: Sync>(
        items: &[T],
        n_features: usize,
        par: &Parallelism,
        fill: impl Fn(&T, &mut [f64]) + Sync,
    ) -> (DistinctRows, Vec<u32>) {
        let chunks: Vec<&[T]> =
            items.chunks(remp_par::chunk_size(items.len(), par.threads())).collect();
        let parts = par.par_map(&chunks, |chunk| {
            let mut rows = DistinctRows::new(n_features);
            let mut row = vec![0.0; n_features];
            let ids: Vec<u32> = chunk
                .iter()
                .map(|item| {
                    fill(item, &mut row);
                    rows.intern(&row)
                })
                .collect();
            (rows, ids)
        });
        let mut all = DistinctRows::new(n_features);
        let mut ids = Vec::with_capacity(items.len());
        for (rows, local) in parts {
            let global: Vec<u32> = (0..rows.len()).map(|id| all.intern(rows.row(id))).collect();
            ids.extend(local.iter().map(|&id| global[id as usize]));
        }
        (all, ids)
    }

    /// The id of `row`, adding it if it is new.
    ///
    /// # Panics
    /// Panics if `row` does not have [`n_features`](Self::n_features)
    /// values.
    pub fn intern(&mut self, row: &[f64]) -> u32 {
        assert_eq!(row.len(), self.n_features, "ragged features");
        let mask = self.slots.len() - 1;
        let mut slot = hash(row) as usize & mask;
        loop {
            match self.slots[slot] {
                EMPTY => break,
                id if same_bits(self.row(id as usize), row) => return id,
                _ => slot = (slot + 1) & mask,
            }
        }
        let id = u32::try_from(self.len).ok().filter(|&id| id != EMPTY).expect("too many rows");
        self.values.extend_from_slice(row);
        self.len += 1;
        self.slots[slot] = id;
        if 2 * self.len > self.slots.len() {
            self.rehash(2 * self.slots.len());
        }
        id
    }

    fn rehash(&mut self, capacity: usize) {
        let mask = capacity - 1;
        let mut slots = vec![EMPTY; capacity];
        for id in 0..self.len {
            let mut slot = hash(self.row(id)) as usize & mask;
            while slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            slots[slot] = id as u32;
        }
        self.slots = slots;
    }

    /// The values of row `id`.
    pub fn row(&self, id: usize) -> &[f64] {
        &self.values[id * self.n_features..][..self.n_features]
    }

    /// Number of values in each row.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of distinct rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` before the first row is interned.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Folds the values' bits with a rotate, xor and multiply each, then
/// mixes the result through the splitmix64 finalizer: feature values such
/// as `0.5` or `1.0` have no low bits set, and the table indexes by the
/// low bits. One finalizer a row instead of one a value made interning
/// `campaign-da`'s 404,375 targets about a third faster.
fn hash(row: &[f64]) -> u64 {
    let mut z = row
        .iter()
        .fold(0, |h: u64, v| (h.rotate_left(29) ^ v.to_bits()).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_bits_share_an_id_and_signed_zeros_do_not() {
        let mut rows = DistinctRows::new(2);
        let a = rows.intern(&[0.5, 1.0]);
        let b = rows.intern(&[0.0, 1.0]);
        let c = rows.intern(&[-0.0, 1.0]);
        assert_eq!(rows.intern(&[0.5, 1.0]), a);
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(rows.len(), 3);
        assert_eq!(rows.row(2)[0].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn the_table_grows_past_its_first_capacity() {
        let mut rows = DistinctRows::new(1);
        for i in 0..1000 {
            assert_eq!(rows.intern(&[i as f64]), i);
        }
        for i in 0..1000 {
            assert_eq!(rows.intern(&[i as f64]), i, "row {i} lost in a rehash");
        }
    }

    #[test]
    fn collect_par_ids_do_not_depend_on_the_thread_count() {
        let items: Vec<u32> = (0..500).map(|i| (i * 7) % 13).collect();
        let fill = |&i: &u32, out: &mut [f64]| {
            out[0] = f64::from(i % 5);
            out[1] = f64::from(i / 5);
        };
        let (seq_rows, seq_ids) =
            DistinctRows::collect_par(&items, 2, &Parallelism::Sequential, fill);
        let (par_rows, par_ids) =
            DistinctRows::collect_par(&items, 2, &Parallelism::Fixed(3), fill);
        assert_eq!(seq_rows.len(), 13);
        assert_eq!(seq_ids, par_ids);
        assert_eq!(seq_rows.values, par_rows.values);
        for (&i, &id) in items.iter().zip(&seq_ids) {
            assert_eq!(seq_rows.row(id as usize), [f64::from(i % 5), f64::from(i / 5)]);
        }
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn a_row_of_the_wrong_width_panics() {
        DistinctRows::new(2).intern(&[1.0]);
    }
}
