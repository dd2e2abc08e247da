//! # tpp-model
//!
//! Data model for the **Task Planning Problem (TPP)** as defined in
//! *"Guided Task Planning Under Complex Constraints"* (ICDE 2022).
//!
//! The paper models a planning universe as a set of **items**
//! `m = ⟨type, cr, pre, T⟩` (courses or points of interest), a set of
//! **topics/themes**, **hard constraints**
//! `P_hard = ⟨#cr, #primary, #secondary, gap⟩` and **soft constraints**
//! `P_soft = ⟨T_ideal, IT⟩` where `IT` is a set of ideal
//! primary/secondary interleaving permutations.
//!
//! This crate contains only the domain model: identifiers, topic-vector
//! bitsets, items with AND/OR prerequisite expressions, constraint types,
//! interleaving templates, plans, catalogs with their derived trip
//! geometry, and plan validation. The CMDP
//! formulation, reward design and learners live in `tpp-core`.

#![warn(missing_docs)]

pub mod builder;
pub mod catalog;
pub mod constraints;
pub mod error;
pub mod geometry;
pub mod ids;
pub mod instance;
pub mod item;
pub mod plan;
pub mod prereq;
pub mod template;
pub mod topic;
pub mod toy;
pub mod validate;

pub use builder::CatalogBuilder;
pub use catalog::Catalog;
pub use constraints::{HardConstraints, SoftConstraints, TripConstraints};
pub use error::ModelError;
pub use geometry::CatalogGeometry;
pub use ids::{ItemId, TopicId};
pub use instance::PlanningInstance;
pub use item::{Category, Item, ItemKind, PoiAttrs};
pub use plan::Plan;
pub use prereq::PrereqExpr;
pub use template::{InterleavingTemplate, SlotKind, TemplateSet};
pub use topic::{TopicVector, TopicVocabulary};
pub use validate::{validate_category_minimums, validate_plan, validate_trip_plan, Violation};
