//! Per-machine work counters.
//!
//! Engines increment these while executing; reports read them back.

/// `max / mean` of a count vector (1.0 = perfectly balanced); 0.0 for an
/// all-zero or empty vector. The balance metric used throughout the
/// study (vertex balance, memory balance, input-vertex balance).
pub fn max_mean_ratio(counts: &[u64]) -> f64 {
    let sum: u64 = counts.iter().sum();
    if sum == 0 || counts.is_empty() {
        return 0.0;
    }
    let mean = sum as f64 / counts.len() as f64;
    let max = *counts.iter().max().expect("non-empty") as f64;
    max / mean
}

/// Work performed by one simulated machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineCounters {
    /// Floating-point operations executed.
    pub flops: u64,
    /// Bytes sent over the network.
    pub bytes_sent: u64,
    /// Bytes received over the network.
    pub bytes_received: u64,
    /// Network messages initiated.
    pub messages: u64,
    /// Peak resident bytes observed.
    pub peak_memory_bytes: u64,
}

impl MachineCounters {
    /// Record a send of `bytes` in one message.
    pub fn send(&mut self, bytes: u64) {
        self.bytes_sent += bytes;
        self.messages += 1;
    }

    /// Record a receive of `bytes`.
    pub fn receive(&mut self, bytes: u64) {
        self.bytes_received += bytes;
    }

    /// Raise the peak memory watermark.
    pub fn observe_memory(&mut self, bytes: u64) {
        self.peak_memory_bytes = self.peak_memory_bytes.max(bytes);
    }

    /// Total network volume (sent + received).
    pub fn network_bytes(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }

    /// Merge another counter set into this one (peak memory takes max).
    pub fn merge(&mut self, other: &MachineCounters) {
        self.flops += other.flops;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.messages += other.messages;
        self.peak_memory_bytes = self.peak_memory_bytes.max(other.peak_memory_bytes);
    }
}

/// Counters for every machine of a cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterCounters {
    machines: Vec<MachineCounters>,
}

impl ClusterCounters {
    /// Zeroed counters for `machines` machines.
    pub fn new(machines: u32) -> Self {
        ClusterCounters { machines: vec![MachineCounters::default(); machines as usize] }
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// Whether the cluster has no machines.
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// Counters of machine `i`.
    pub fn machine(&self, i: u32) -> &MachineCounters {
        &self.machines[i as usize]
    }

    /// Mutable counters of machine `i`.
    pub fn machine_mut(&mut self, i: u32) -> &mut MachineCounters {
        &mut self.machines[i as usize]
    }

    /// Iterator over all machines.
    pub fn iter(&self) -> impl Iterator<Item = &MachineCounters> {
        self.machines.iter()
    }

    /// Total network bytes across the cluster.
    pub fn total_network_bytes(&self) -> u64 {
        self.machines.iter().map(MachineCounters::network_bytes).sum()
    }

    /// Memory-utilisation balance `max / mean` (1.0 = perfect); the
    /// paper's Figure 5 metric.
    pub fn memory_balance(&self) -> f64 {
        let peaks: Vec<u64> = self.machines.iter().map(|m| m.peak_memory_bytes).collect();
        max_mean_ratio(&peaks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_receive_totals() {
        let mut c = ClusterCounters::new(2);
        c.machine_mut(0).send(100);
        c.machine_mut(1).receive(100);
        assert_eq!(c.total_network_bytes(), 200);
        assert_eq!(c.machine(0).messages, 1);
    }

    #[test]
    fn peak_memory_is_watermark() {
        let mut m = MachineCounters::default();
        m.observe_memory(100);
        m.observe_memory(50);
        assert_eq!(m.peak_memory_bytes, 100);
    }

    #[test]
    fn memory_balance_perfect() {
        let mut c = ClusterCounters::new(4);
        for i in 0..4 {
            c.machine_mut(i).observe_memory(1000);
        }
        assert!((c.memory_balance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn memory_balance_skewed() {
        let mut c = ClusterCounters::new(2);
        c.machine_mut(0).observe_memory(3000);
        c.machine_mut(1).observe_memory(1000);
        // max 3000 / mean 2000 = 1.5.
        assert!((c.memory_balance() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn merge_combines() {
        let mut a = MachineCounters { flops: 1, bytes_sent: 2, ..Default::default() };
        a.observe_memory(10);
        let mut b = MachineCounters { flops: 3, bytes_received: 4, ..Default::default() };
        b.observe_memory(5);
        a.merge(&b);
        assert_eq!(a.flops, 4);
        assert_eq!(a.network_bytes(), 6);
        assert_eq!(a.peak_memory_bytes, 10);
    }

    #[test]
    fn max_mean_ratio_basics() {
        assert_eq!(max_mean_ratio(&[]), 0.0);
        assert_eq!(max_mean_ratio(&[0, 0]), 0.0);
        assert_eq!(max_mean_ratio(&[5, 5]), 1.0);
        assert_eq!(max_mean_ratio(&[3, 1]), 1.5);
    }

    #[test]
    fn empty_cluster_balance_zero() {
        let c = ClusterCounters::new(0);
        assert_eq!(c.memory_balance(), 0.0);
        assert!(c.is_empty());
    }
}
