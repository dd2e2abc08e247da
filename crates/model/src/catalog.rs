//! Catalogs: the item universe `I` with its topic vocabulary.

use crate::error::ModelError;
use crate::geometry::{CatalogGeometry, GeometryCell};
use crate::ids::ItemId;
use crate::item::{Item, ItemKind};
use crate::topic::TopicVocabulary;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// An immutable item universe: all items of one planning instance plus the
/// topic vocabulary they are defined over.
///
/// Invariants, enforced at construction:
/// * item ids are dense (`items[i].id == i`);
/// * item codes are unique;
/// * every topic vector has the vocabulary's length;
/// * prerequisite expressions only reference catalog items, never the item
///   itself, and the prerequisite graph is acyclic.
///
/// A trip catalog also derives its geometry ([`Catalog::geometry`]),
/// built on first use and shared by every clone.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Catalog {
    name: String,
    vocabulary: TopicVocabulary,
    items: Vec<Item>,
    #[serde(skip)]
    code_index: HashMap<String, ItemId>,
    #[serde(skip)]
    geometry: GeometryCell,
}

impl Catalog {
    /// Builds a catalog, validating all invariants.
    pub fn new(
        name: impl Into<String>,
        vocabulary: TopicVocabulary,
        items: Vec<Item>,
    ) -> Result<Self, ModelError> {
        let mut code_index = HashMap::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            if item.id.index() != i {
                return Err(ModelError::UnknownItem(item.id));
            }
            if item.topics.len() != vocabulary.len() {
                return Err(ModelError::VocabularyMismatch {
                    item: item.id,
                    got: item.topics.len(),
                    expected: vocabulary.len(),
                });
            }
            if code_index.insert(item.code.clone(), item.id).is_some() {
                return Err(ModelError::DuplicateItemCode(item.code.clone()));
            }
        }
        let cat = Catalog {
            name: name.into(),
            vocabulary,
            items,
            code_index,
            geometry: GeometryCell::default(),
        };
        cat.check_prereqs()?;
        Ok(cat)
    }

    /// Rebuilds the (non-serialized) code index after deserialization.
    pub fn rebuild_index(&mut self) {
        self.code_index = self
            .items
            .iter()
            .map(|it| (it.code.clone(), it.id))
            .collect();
    }

    fn check_prereqs(&self) -> Result<(), ModelError> {
        let n = self.items.len();
        for item in &self.items {
            for dep in item.prereq.referenced_items() {
                if dep.index() >= n {
                    return Err(ModelError::UnknownItem(dep));
                }
                if dep == item.id {
                    return Err(ModelError::SelfPrerequisite(item.id));
                }
            }
        }
        // Cycle detection by iterative DFS with colors over "depends-on"
        // edges (treating AND and OR uniformly: any reference is an edge).
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color = vec![Color::White; n];
        for start in 0..n {
            if color[start] != Color::White {
                continue;
            }
            // Stack of (node, next-child-index) over precomputed dep lists.
            let mut stack: Vec<(usize, Vec<ItemId>, usize)> =
                vec![(start, self.items[start].prereq.referenced_items(), 0)];
            color[start] = Color::Gray;
            while let Some((node, deps, idx)) = stack.last_mut() {
                if *idx < deps.len() {
                    let child = deps[*idx].index();
                    *idx += 1;
                    match color[child] {
                        Color::White => {
                            color[child] = Color::Gray;
                            stack.push((child, self.items[child].prereq.referenced_items(), 0));
                        }
                        Color::Gray => {
                            return Err(ModelError::PrerequisiteCycle(ItemId::from(child)));
                        }
                        Color::Black => {}
                    }
                } else {
                    color[*node] = Color::Black;
                    stack.pop();
                }
            }
        }
        Ok(())
    }

    /// Catalog name (e.g. `"univ1/ds-ct"`, `"trips/paris"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The topic vocabulary.
    pub fn vocabulary(&self) -> &TopicVocabulary {
        &self.vocabulary
    }

    /// Number of items `|I|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when the catalog has no items.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The item with the given id.
    ///
    /// # Panics
    /// Panics if the id is out of range; ids handed out by this catalog
    /// are always valid.
    #[inline]
    pub fn item(&self, id: ItemId) -> &Item {
        &self.items[id.index()]
    }

    /// The item with the given id, or `None` when out of range.
    pub fn get(&self, id: ItemId) -> Option<&Item> {
        self.items.get(id.index())
    }

    /// Looks an item up by its stable code.
    pub fn by_code(&self, code: &str) -> Option<&Item> {
        self.code_index.get(code).map(|id| self.item(*id))
    }

    /// All items in id order.
    #[inline]
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Ids of all items, in order.
    pub fn ids(&self) -> impl Iterator<Item = ItemId> + '_ {
        (0..self.items.len()).map(ItemId::from)
    }

    /// Number of primary items in the universe.
    pub fn primary_count(&self) -> usize {
        self.items.iter().filter(|i| i.is_primary()).count()
    }

    /// Number of secondary items in the universe.
    pub fn secondary_count(&self) -> usize {
        self.len() - self.primary_count()
    }

    /// Items of a given kind.
    pub fn items_of_kind(&self, kind: ItemKind) -> impl Iterator<Item = &Item> {
        self.items.iter().filter(move |i| i.kind == kind)
    }

    /// `true` if any item carries POI attributes (trip catalog).
    pub fn is_trip_catalog(&self) -> bool {
        self.items.iter().any(|i| i.poi.is_some())
    }

    /// The trip geometry over every item's POI, built on the first
    /// call; `None` when the catalog is empty or an item has no POI.
    pub fn geometry(&self) -> Option<&CatalogGeometry> {
        self.geometry.get_or_build(&self.items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prereq::PrereqExpr;
    use crate::topic::TopicVector;

    fn voc13() -> TopicVocabulary {
        TopicVocabulary::new([
            "Algorithms",
            "Classification",
            "Clustering",
            "Statistics",
            "Regression",
            "Data Structure",
            "Neural Network",
            "Probability",
            "Data Visualization",
            "Linear System",
            "Matrix Decomposition",
            "Data Management",
            "Data Transfer",
        ])
        .unwrap()
    }

    fn table2_catalog() -> Catalog {
        crate::toy::table2_catalog()
    }

    #[test]
    fn table2_catalog_builds() {
        let c = table2_catalog();
        assert_eq!(c.len(), 6);
        assert_eq!(c.primary_count(), 3);
        assert_eq!(c.secondary_count(), 3);
        assert!(!c.is_trip_catalog());
        assert_eq!(c.by_code("m6").unwrap().name, "Machine Learning");
        assert_eq!(c.vocabulary().len(), 13);
    }

    #[test]
    fn dense_id_violation_rejected() {
        let items = vec![Item::course(
            ItemId(5),
            "x",
            "X",
            ItemKind::Primary,
            3.0,
            PrereqExpr::None,
            TopicVector::zeros(13),
        )];
        assert!(Catalog::new("bad", voc13(), items).is_err());
    }

    #[test]
    fn duplicate_code_rejected() {
        let items = vec![
            Item::course(
                ItemId(0),
                "same",
                "A",
                ItemKind::Primary,
                3.0,
                PrereqExpr::None,
                TopicVector::zeros(13),
            ),
            Item::course(
                ItemId(1),
                "same",
                "B",
                ItemKind::Primary,
                3.0,
                PrereqExpr::None,
                TopicVector::zeros(13),
            ),
        ];
        assert!(matches!(
            Catalog::new("bad", voc13(), items),
            Err(ModelError::DuplicateItemCode(_))
        ));
    }

    #[test]
    fn vocabulary_mismatch_rejected() {
        let items = vec![Item::course(
            ItemId(0),
            "x",
            "X",
            ItemKind::Primary,
            3.0,
            PrereqExpr::None,
            TopicVector::zeros(7),
        )];
        assert!(matches!(
            Catalog::new("bad", voc13(), items),
            Err(ModelError::VocabularyMismatch { .. })
        ));
    }

    #[test]
    fn self_prereq_rejected() {
        let items = vec![Item::course(
            ItemId(0),
            "x",
            "X",
            ItemKind::Primary,
            3.0,
            PrereqExpr::Item(ItemId(0)),
            TopicVector::zeros(13),
        )];
        assert!(matches!(
            Catalog::new("bad", voc13(), items),
            Err(ModelError::SelfPrerequisite(_))
        ));
    }

    #[test]
    fn prereq_cycle_rejected() {
        let items = vec![
            Item::course(
                ItemId(0),
                "a",
                "A",
                ItemKind::Primary,
                3.0,
                PrereqExpr::Item(ItemId(1)),
                TopicVector::zeros(13),
            ),
            Item::course(
                ItemId(1),
                "b",
                "B",
                ItemKind::Primary,
                3.0,
                PrereqExpr::Item(ItemId(0)),
                TopicVector::zeros(13),
            ),
        ];
        assert!(matches!(
            Catalog::new("bad", voc13(), items),
            Err(ModelError::PrerequisiteCycle(_))
        ));
    }

    #[test]
    fn unknown_prereq_target_rejected() {
        let items = vec![Item::course(
            ItemId(0),
            "a",
            "A",
            ItemKind::Primary,
            3.0,
            PrereqExpr::Item(ItemId(42)),
            TopicVector::zeros(13),
        )];
        assert!(matches!(
            Catalog::new("bad", voc13(), items),
            Err(ModelError::UnknownItem(_))
        ));
    }

    #[test]
    fn rebuild_index_restores_code_lookup() {
        let c = table2_catalog();
        let json = serde_json::to_string(&c).unwrap();
        let mut back: Catalog = serde_json::from_str(&json).unwrap();
        assert!(back.by_code("m1").is_none()); // index not serialized
        back.rebuild_index();
        assert_eq!(back.by_code("m1").unwrap().id, ItemId(0));
    }

    #[test]
    fn items_of_kind_filters() {
        let c = table2_catalog();
        let primaries: Vec<&str> = c
            .items_of_kind(ItemKind::Primary)
            .map(|i| i.code.as_str())
            .collect();
        assert_eq!(primaries, vec!["m1", "m3", "m6"]);
    }
}
