//! The complete computing system a schedule targets: an ETC matrix plus an
//! interconnect.

use rand::Rng;

use hetsched_dag::{Dag, TaskId};

use crate::etc::{EtcMatrix, EtcParams};
use crate::network::Network;
use crate::ProcId;

/// A target computing system: execution times (ETC matrix) and
/// communication costs (network) over the same processor set.
///
/// This is the single object every scheduler in `hetsched-core` consumes;
/// homogeneous systems are just the special case of a flat ETC matrix and a
/// uniform network.
#[derive(Debug, Clone)]
pub struct System {
    etc: EtcMatrix,
    net: Network,
}

impl System {
    /// Combine an ETC matrix and a network.
    ///
    /// # Panics
    /// Panics if they disagree on the processor count.
    pub fn new(etc: EtcMatrix, net: Network) -> Self {
        assert_eq!(
            etc.num_procs(),
            net.num_procs(),
            "ETC matrix and network must cover the same processors"
        );
        System { etc, net }
    }

    /// Homogeneous system: `n_procs` identical processors (task times equal
    /// nominal weights) over a uniform network.
    pub fn homogeneous(dag: &Dag, n_procs: usize, startup: f64, bandwidth: f64) -> Self {
        Self::new(
            EtcMatrix::homogeneous(dag, n_procs),
            Network::uniform(n_procs, startup, bandwidth),
        )
    }

    /// Homogeneous system over a zero-latency unit-bandwidth network:
    /// communication time equals edge data volume. The abstract setting of
    /// most homogeneous scheduling papers.
    pub fn homogeneous_unit(dag: &Dag, n_procs: usize) -> Self {
        Self::new(EtcMatrix::homogeneous(dag, n_procs), Network::unit(n_procs))
    }

    /// Heterogeneous system with a generated ETC matrix (per `params`) over
    /// a unit network. The configuration of the classic random-DAG
    /// experiments, where edge data volumes already encode the intended CCR.
    pub fn heterogeneous_random<R: Rng + ?Sized>(
        dag: &Dag,
        n_procs: usize,
        params: &EtcParams,
        rng: &mut R,
    ) -> Self {
        Self::new(
            EtcMatrix::generate(dag, n_procs, params, rng),
            Network::unit(n_procs),
        )
    }

    /// Heterogeneous system with both a generated ETC matrix and a random
    /// heterogeneous network.
    pub fn fully_random<R: Rng + ?Sized>(
        dag: &Dag,
        n_procs: usize,
        params: &EtcParams,
        startup_range: (f64, f64),
        bandwidth_range: (f64, f64),
        rng: &mut R,
    ) -> Self {
        Self::new(
            EtcMatrix::generate(dag, n_procs, params, rng),
            Network::heterogeneous_random(n_procs, startup_range, bandwidth_range, rng),
        )
    }

    /// Number of processors.
    #[inline]
    pub fn num_procs(&self) -> usize {
        self.etc.num_procs()
    }

    /// Iterator over all processor ids.
    pub fn proc_ids(&self) -> impl ExactSizeIterator<Item = ProcId> + Clone {
        (0..self.num_procs() as u32).map(ProcId)
    }

    /// The ETC matrix.
    #[inline]
    pub fn etc(&self) -> &EtcMatrix {
        &self.etc
    }

    /// The network.
    #[inline]
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Execution time of task `t` on processor `p`.
    #[inline]
    pub fn exec_time(&self, t: TaskId, p: ProcId) -> f64 {
        self.etc.exec(t, p)
    }

    /// Communication time of `data` units from `p` to `q` (0 when equal).
    #[inline]
    pub fn comm_time(&self, data: f64, p: ProcId, q: ProcId) -> f64 {
        self.net.comm_time(data, p, q)
    }

    /// Mean execution time of `t` over processors (the `w̄ₜ` of HEFT).
    #[inline]
    pub fn mean_exec(&self, t: TaskId) -> f64 {
        self.etc.mean_exec(t)
    }

    /// Mean communication time of `data` units over distinct processor
    /// pairs (the `c̄` of HEFT).
    #[inline]
    pub fn mean_comm(&self, data: f64) -> f64 {
        self.net.mean_comm_time(data)
    }

    /// Whether this system is homogeneous (flat ETC matrix).
    pub fn is_homogeneous(&self) -> bool {
        self.etc.is_homogeneous()
    }

    /// Stable 64-bit fingerprint of the full system content (ETC matrix
    /// plus network). Any change to one execution-time entry, one link
    /// cost, or either dimension changes the digest. See
    /// [`hetsched_dag::fingerprint`].
    pub fn content_fingerprint(&self) -> u64 {
        let mut fp = hetsched_dag::Fingerprint::new();
        self.fold_fingerprint(&mut fp);
        fp.finish()
    }

    /// Fold the system content into an existing fingerprint stream.
    pub fn fold_fingerprint(&self, fp: &mut hetsched_dag::Fingerprint) {
        self.etc.fold_fingerprint(fp);
        self.net.fold_fingerprint(fp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_dag::builder::dag_from_edges;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dag() -> Dag {
        dag_from_edges(&[2.0, 3.0, 4.0], &[(0, 1, 6.0), (0, 2, 8.0)]).unwrap()
    }

    #[test]
    fn homogeneous_accessors() {
        let d = dag();
        let sys = System::homogeneous(&d, 3, 1.0, 2.0);
        assert_eq!(sys.num_procs(), 3);
        assert!(sys.is_homogeneous());
        assert_eq!(sys.exec_time(TaskId(1), ProcId(2)), 3.0);
        assert_eq!(sys.comm_time(6.0, ProcId(0), ProcId(1)), 1.0 + 3.0);
        assert_eq!(sys.comm_time(6.0, ProcId(1), ProcId(1)), 0.0);
        assert_eq!(sys.mean_exec(TaskId(2)), 4.0);
        assert_eq!(sys.mean_comm(6.0), 4.0);
    }

    #[test]
    fn unit_network_comm_is_data() {
        let d = dag();
        let sys = System::homogeneous_unit(&d, 2);
        assert_eq!(sys.comm_time(8.0, ProcId(0), ProcId(1)), 8.0);
    }

    #[test]
    fn heterogeneous_random_is_reproducible() {
        let d = dag();
        let mk = || {
            let mut rng = StdRng::seed_from_u64(7);
            System::heterogeneous_random(&d, 4, &EtcParams::range_based(1.0), &mut rng)
        };
        let (a, b) = (mk(), mk());
        for t in d.task_ids() {
            for p in a.proc_ids() {
                assert_eq!(a.exec_time(t, p), b.exec_time(t, p));
            }
        }
        assert!(!a.is_homogeneous());
    }

    #[test]
    fn fully_random_builds() {
        let d = dag();
        let mut rng = StdRng::seed_from_u64(8);
        let sys = System::fully_random(
            &d,
            4,
            &EtcParams::range_based(0.5),
            (0.1, 0.2),
            (1.0, 4.0),
            &mut rng,
        );
        assert_eq!(sys.num_procs(), 4);
        let c = sys.comm_time(4.0, ProcId(0), ProcId(1));
        assert!((0.1 + 1.0..=0.2 + 4.0).contains(&c), "comm {c}");
    }

    #[test]
    #[should_panic(expected = "same processors")]
    fn mismatched_sizes_panic() {
        let d = dag();
        System::new(EtcMatrix::homogeneous(&d, 3), Network::unit(4));
    }

    #[test]
    fn fingerprint_stable_and_sensitive() {
        let d = dag();
        let base = System::homogeneous(&d, 3, 1.0, 2.0);
        let same = System::homogeneous(&d, 3, 1.0, 2.0);
        assert_eq!(base.content_fingerprint(), same.content_fingerprint());

        // Perturb exactly one ETC entry.
        let bumped = EtcMatrix::from_fn(d.num_tasks(), 3, |t, p| {
            let v = base.exec_time(t, p);
            if t == TaskId(1) && p == ProcId(2) {
                v + 0.25
            } else {
                v
            }
        });
        let sys2 = System::new(bumped, Network::uniform(3, 1.0, 2.0));
        assert_ne!(base.content_fingerprint(), sys2.content_fingerprint());

        // Perturb only the network.
        let sys3 = System::new(EtcMatrix::homogeneous(&d, 3), Network::uniform(3, 1.0, 2.5));
        assert_ne!(base.content_fingerprint(), sys3.content_fingerprint());

        // ETC and network digests are domain-separated: a system fingerprint
        // never equals either component's own fingerprint.
        assert_ne!(base.content_fingerprint(), base.etc().content_fingerprint());
        assert_ne!(
            base.content_fingerprint(),
            base.network().content_fingerprint()
        );
    }
}
