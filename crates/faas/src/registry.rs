//! Function registry.

use horse_vmm::SandboxConfig;
use horse_workloads::Category;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a registered function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FunctionId(u64);

impl FunctionId {
    /// Raw id.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
impl FunctionId {
    /// Fixed id for unit tests in this crate.
    pub(crate) fn default_for_test() -> Self {
        FunctionId(0)
    }
}

impl fmt::Display for FunctionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn{}", self.0)
    }
}

/// Metadata of a registered function: what it is and what sandbox it
/// needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionMeta {
    name: String,
    category: Category,
    config: SandboxConfig,
}

impl FunctionMeta {
    /// Creates function metadata.
    pub fn new(name: impl Into<String>, category: Category, config: SandboxConfig) -> Self {
        Self {
            name: name.into(),
            category,
            config,
        }
    }

    /// Function name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Workload category (drives the simulated service time).
    pub fn category(&self) -> Category {
        self.category
    }

    /// Sandbox configuration template for instances of this function.
    pub fn config(&self) -> SandboxConfig {
        self.config
    }
}

/// The platform's function registry.
///
/// # Example
///
/// ```
/// use horse_faas::FunctionRegistry;
/// use horse_vmm::SandboxConfig;
/// use horse_workloads::Category;
///
/// let mut reg = FunctionRegistry::new();
/// let id = reg.register("nat", Category::Cat2, SandboxConfig::default());
/// assert_eq!(reg.get(id).unwrap().name(), "nat");
/// assert_eq!(reg.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FunctionRegistry {
    functions: Vec<FunctionMeta>,
}

impl FunctionRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a function, returning its id.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        category: Category,
        config: SandboxConfig,
    ) -> FunctionId {
        let id = FunctionId(self.functions.len() as u64);
        self.functions
            .push(FunctionMeta::new(name, category, config));
        id
    }

    /// Looks up a function.
    pub fn get(&self, id: FunctionId) -> Option<&FunctionMeta> {
        self.functions.get(id.0 as usize)
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }

    /// Iterates over `(id, meta)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FunctionId, &FunctionMeta)> {
        self.functions
            .iter()
            .enumerate()
            .map(|(i, m)| (FunctionId(i as u64), m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut r = FunctionRegistry::new();
        assert!(r.is_empty());
        let a = r.register("fw", Category::Cat1, SandboxConfig::default());
        let b = r.register("nat", Category::Cat2, SandboxConfig::default());
        assert_ne!(a, b);
        assert_eq!(r.get(a).unwrap().category(), Category::Cat1);
        assert_eq!(r.get(b).unwrap().name(), "nat");
        assert_eq!(r.iter().count(), 2);
        assert_eq!(b.to_string(), "fn1");
        assert_eq!(b.as_u64(), 1);
    }

    #[test]
    fn unknown_id_is_none() {
        let r = FunctionRegistry::new();
        assert!(r.get(FunctionId(3)).is_none());
    }
}
