//! The durable campaign plan: a deterministic list of content-addressed
//! work units.
//!
//! A [`CampaignManifest`] partitions a campaign's item list (walked
//! faults, SEU injection points, …) into fixed-grain contiguous
//! [`UnitSpec`] ranges. Each unit's [`ContentHash`] derives from the
//! campaign hash plus the unit's index and range, so the same campaign
//! always produces the same plan — the property that lets a restarted or
//! concurrent process recognize finished units in a
//! [`crate::store::ResultStore`] by key alone. The partition depends
//! only on the item count and grain, never on the worker count:
//! those change wall-clock, not identity.

use crate::store::{CanonicalHasher, ContentHash};
use std::fmt::Write as _;
use std::ops::Range;

/// One content-addressed work unit: a contiguous item range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitSpec {
    /// Content key the unit's result is stored under.
    pub id: ContentHash,
    /// Item range (into the campaign's item list) the unit covers.
    pub range: Range<usize>,
}

/// The deterministic plan of a durable campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignManifest {
    /// Hash of everything that determines the campaign's verdicts
    /// (netlist, fault universe, options, patterns).
    pub campaign: ContentHash,
    /// Total items the plan covers.
    pub total_items: usize,
    /// The units, in item order, covering `0..total_items` exactly.
    pub units: Vec<UnitSpec>,
}

impl CampaignManifest {
    /// Partitions `total_items` into units of `unit_items` (the last
    /// unit may be ragged). An empty campaign has zero units.
    ///
    /// # Panics
    ///
    /// Panics when `unit_items == 0`.
    pub fn build(campaign: ContentHash, total_items: usize, unit_items: usize) -> Self {
        assert!(unit_items > 0, "unit grain must be at least one item");
        let units = (0..total_items.div_ceil(unit_items))
            .map(|index| {
                let range = index * unit_items..((index + 1) * unit_items).min(total_items);
                let mut h = CanonicalHasher::new("rescue.unit.v1");
                h.write_u128(campaign.0);
                h.write_usize(index);
                h.write_usize(range.start);
                h.write_usize(range.end);
                UnitSpec {
                    id: h.finish(),
                    range,
                }
            })
            .collect();
        CampaignManifest {
            campaign,
            total_items,
            units,
        }
    }

    /// Unit indices whose results are missing from `store`. A record
    /// that names another unit does not count as this unit's result.
    pub fn missing(&self, store: &dyn crate::store::ResultStore) -> Vec<usize> {
        self.units
            .iter()
            .enumerate()
            .filter(|(_, u)| store.get(u.id).is_none_or(|rec| rec.unit != u.id))
            .map(|(i, _)| i)
            .collect()
    }

    /// Renders the plan as JSON (shareable campaign evidence).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\n  \"campaign\": \"{}\",\n  \"total_items\": {},\n  \"units\": [",
            self.campaign, self.total_items
        );
        for (i, u) in self.units.iter().enumerate() {
            let _ = write!(
                s,
                "{}\n    {{\"id\": \"{}\", \"start\": {}, \"end\": {}}}",
                if i > 0 { "," } else { "" },
                u.id,
                u.range.start,
                u.range.end
            );
        }
        s.push_str("\n  ]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{MemStore, ResultStore, StatsDelta, UnitRecord};

    #[test]
    fn build_covers_items_exactly_once() {
        for (total, grain) in [(0usize, 5usize), (1, 5), (10, 3), (12, 4), (256, 256)] {
            let m = CampaignManifest::build(ContentHash(1), total, grain);
            assert_eq!(m.total_items, total);
            let mut next = 0;
            for u in &m.units {
                assert_eq!(u.range.start, next, "contiguous");
                assert!(u.range.end > u.range.start, "non-empty");
                assert!(u.range.len() <= grain);
                next = u.range.end;
            }
            assert_eq!(next, total, "{total} items at grain {grain}");
        }
    }

    #[test]
    fn unit_ids_are_deterministic_and_distinct() {
        let a = CampaignManifest::build(ContentHash(9), 100, 16);
        let b = CampaignManifest::build(ContentHash(9), 100, 16);
        assert_eq!(a, b, "same plan every time");
        let mut ids: Vec<_> = a.units.iter().map(|u| u.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), a.units.len(), "no id collisions");
        // A different campaign hash moves every unit id.
        let c = CampaignManifest::build(ContentHash(10), 100, 16);
        assert!(a.units.iter().zip(&c.units).all(|(x, y)| x.id != y.id));
    }

    #[test]
    fn missing_reflects_store_contents() {
        let m = CampaignManifest::build(ContentHash(4), 10, 4);
        let store = MemStore::new();
        assert_eq!(m.missing(&store), vec![0, 1, 2]);
        let record = |unit: &UnitSpec| UnitRecord {
            unit: unit.id,
            stats: StatsDelta::default(),
            payload: vec![],
        };
        store.put(m.units[1].id, &record(&m.units[1]));
        assert_eq!(m.missing(&store), vec![0, 2]);
        // A record filed under another unit's id answers nothing.
        store.put(m.units[2].id, &record(&m.units[0]));
        assert_eq!(m.missing(&store), vec![0, 2]);
    }

    #[test]
    fn json_plan_lists_every_unit() {
        let m = CampaignManifest::build(ContentHash(2), 5, 2);
        let j = m.to_json();
        assert!(j.contains("\"total_items\": 5"));
        assert_eq!(j.matches("\"id\"").count(), 3);
        assert!(j.contains(&format!("\"campaign\": \"{}\"", m.campaign)));
    }
}
