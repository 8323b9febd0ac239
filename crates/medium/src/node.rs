//! Node registry.

/// Identifier of a node attached to the medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Static description of a node on the medium.
#[derive(Debug, Clone)]
// nplus:allow(VIS001): the return type of the public `Medium::node`
pub struct NodeInfo {
    /// The node's identifier.
    pub id: NodeId,
    /// Number of antennas.
    pub n_antennas: usize,
    /// Oscillator offset of this node's radio relative to the nominal
    /// carrier, in Hz. Differences between nodes produce CFO.
    pub oscillator_offset_hz: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(3).to_string(), "n3");
    }

    #[test]
    fn node_id_ordering() {
        assert!(NodeId(1) < NodeId(2));
        assert_eq!(NodeId(5), NodeId(5));
    }
}
