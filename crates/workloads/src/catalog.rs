//! The assembled workload catalog.
//!
//! [`full_catalog`] enumerates the 77 BigDataBench-like workloads
//! (mirroring BigDataBench 3.0's operator × implementation × data-set
//! matrix), [`representatives`] returns the paper's 17 Table 2 workloads,
//! [`mpi_workloads`] the six MPI control implementations of §5.5, and
//! [`suite_workloads`] the comparison-suite kernels.

use crate::offline;
use crate::queries::{run_query, QueryData};
use crate::service::{hbase_service, RequestMix};
use crate::spec::{Category, KernelKind, Runner, WorkloadDef, WorkloadSpec};
use crate::suites::{self, Suite};
use bdb_datagen::DataSetId;
use bdb_stacks::StackKind;
use std::sync::Arc;

const ITERATIONS: usize = 8;

fn def(
    id: impl Into<String>,
    stack: StackKind,
    category: Category,
    dataset: DataSetId,
    kernel: KernelKind,
    runner: Runner,
) -> WorkloadDef {
    WorkloadDef::new(
        WorkloadSpec {
            id: id.into(),
            stack,
            category,
            dataset,
            kernel,
        },
        runner,
    )
}

/// One offline-analytics workload exactly as [`full_catalog`] and
/// [`mpi_workloads`] build it, for callers that need a few offline
/// workloads without building the whole catalog.
///
/// # Panics
///
/// Panics unless `stack` is Hadoop, Spark or MPI and `kernel` is one of
/// the offline kernels that stack runs.
pub fn offline_def(stack: StackKind, kernel: KernelKind, dataset: DataSetId) -> WorkloadDef {
    use DataSetId as D;
    use KernelKind as K;
    use StackKind as S;
    let prefix = match stack {
        S::Hadoop => "H",
        S::Spark => "S",
        S::Mpi => "M",
        // bdb-lint: allow(panic-reachability): exhaustive over the static catalog table; catalog-spec pins every entry
        _ => unreachable!("offline workloads run on Hadoop/Spark/MPI"),
    };
    let kernel_name = match kernel {
        K::WordCount => "WordCount",
        K::Sort => "Sort",
        K::Grep => "Grep",
        K::KMeans => "Kmeans",
        K::PageRank => "PageRank",
        K::NaiveBayes => "NaiveBayes",
        K::InvertedIndex => "Index",
        K::ConnectedComponents => "CC",
        // bdb-lint: allow(panic-reachability): exhaustive over the static catalog table; catalog-spec pins every entry
        other => unreachable!("{other:?} is not an offline kernel"),
    };
    let suffix =
        if dataset == D::AmazonReviews && matches!(kernel, K::WordCount | K::Sort | K::Grep) {
            "-Amazon"
        } else {
            ""
        };
    let id = format!("{prefix}-{kernel_name}{suffix}");
    let runner: Runner = match (stack, kernel) {
        (S::Hadoop, K::WordCount) => {
            Arc::new(move |s, sc| offline::hadoop_wordcount(s, sc, dataset))
        }
        (S::Hadoop, K::Sort) => Arc::new(move |s, sc| offline::hadoop_sort(s, sc, dataset)),
        (S::Hadoop, K::Grep) => Arc::new(move |s, sc| offline::hadoop_grep(s, sc, dataset)),
        (S::Hadoop, K::KMeans) => Arc::new(|s, sc| offline::hadoop_kmeans(s, sc, ITERATIONS)),
        (S::Hadoop, K::PageRank) => {
            Arc::new(move |s, sc| offline::hadoop_pagerank(s, sc, dataset, ITERATIONS))
        }
        (S::Hadoop, K::NaiveBayes) => Arc::new(|s, sc| offline::hadoop_bayes(s, sc)),
        (S::Hadoop, K::InvertedIndex) => {
            Arc::new(move |s, sc| offline::hadoop_index(s, sc, dataset))
        }
        (S::Hadoop, K::ConnectedComponents) => {
            Arc::new(|s, sc| offline::hadoop_cc(s, sc, ITERATIONS))
        }
        (S::Spark, K::WordCount) => Arc::new(move |s, sc| offline::spark_wordcount(s, sc, dataset)),
        (S::Spark, K::Sort) => Arc::new(move |s, sc| offline::spark_sort(s, sc, dataset)),
        (S::Spark, K::Grep) => Arc::new(move |s, sc| offline::spark_grep(s, sc, dataset)),
        (S::Spark, K::KMeans) => Arc::new(|s, sc| offline::spark_kmeans(s, sc, ITERATIONS)),
        (S::Spark, K::PageRank) => {
            Arc::new(move |s, sc| offline::spark_pagerank(s, sc, dataset, ITERATIONS))
        }
        (S::Spark, K::NaiveBayes) => Arc::new(|s, sc| offline::spark_bayes(s, sc)),
        (S::Spark, K::InvertedIndex) => Arc::new(move |s, sc| offline::spark_index(s, sc, dataset)),
        (S::Spark, K::ConnectedComponents) => {
            Arc::new(|s, sc| offline::spark_cc(s, sc, ITERATIONS))
        }
        (S::Mpi, K::WordCount) => Arc::new(move |s, sc| offline::mpi_wordcount(s, sc, dataset)),
        (S::Mpi, K::Sort) => Arc::new(move |s, sc| offline::mpi_sort(s, sc, dataset)),
        (S::Mpi, K::Grep) => Arc::new(move |s, sc| offline::mpi_grep(s, sc, dataset)),
        (S::Mpi, K::KMeans) => Arc::new(|s, sc| offline::mpi_kmeans(s, sc, ITERATIONS)),
        (S::Mpi, K::PageRank) => {
            Arc::new(move |s, sc| offline::mpi_pagerank(s, sc, dataset, ITERATIONS))
        }
        (S::Mpi, K::NaiveBayes) => Arc::new(|s, sc| offline::mpi_bayes(s, sc)),
        // bdb-lint: allow(panic-reachability): exhaustive over the static catalog table; catalog-spec pins every entry
        (stack, kernel) => unreachable!("no offline runner for {kernel:?} on {stack}"),
    };
    def(id, stack, Category::DataAnalysis, dataset, kernel, runner)
}

fn query_def(engine: StackKind, kernel: KernelKind, data: QueryData) -> WorkloadDef {
    use KernelKind as K;
    let prefix = match engine {
        StackKind::Hive => "H",
        StackKind::Shark => "S",
        StackKind::Impala => "I",
        // bdb-lint: allow(panic-reachability): exhaustive over the static catalog table; catalog-spec pins every entry
        other => unreachable!("{other} is not a SQL engine"),
    };
    let op_name = match kernel {
        K::Select => "SelectQuery",
        K::Project => "Project",
        K::OrderBy => "OrderBy",
        K::Aggregation => "Aggregation",
        K::Join => "JoinQuery",
        K::Difference => "Difference",
        K::TpcDsQ3 => "TPC-DS-query3",
        K::TpcDsQ6 => "TPC-DS-query6",
        K::TpcDsQ8 => "TPC-DS-query8",
        K::TpcDsQ10 => "TPC-DS-query10",
        K::TpcDsQ13 => "TPC-DS-query13",
        // bdb-lint: allow(panic-reachability): exhaustive over the static catalog table; catalog-spec pins every entry
        other => unreachable!("{other:?} is not a query kernel"),
    };
    let (suffix, dataset) = match data {
        QueryData::Ecommerce => ("", DataSetId::EcommerceTransactions),
        QueryData::TpcdsWeb => {
            if matches!(
                kernel,
                K::TpcDsQ3 | K::TpcDsQ6 | K::TpcDsQ8 | K::TpcDsQ10 | K::TpcDsQ13
            ) {
                ("", DataSetId::TpcdsWeb)
            } else {
                ("-Web", DataSetId::TpcdsWeb)
            }
        }
    };
    let id = format!("{prefix}-{op_name}{suffix}");
    let runner: Runner = Arc::new(move |s, sc| run_query(s, sc, engine, kernel, data));
    def(
        id,
        engine,
        Category::InteractiveAnalysis,
        dataset,
        kernel,
        runner,
    )
}

fn service_def(name: &str, kernel: KernelKind, mix: RequestMix) -> WorkloadDef {
    def(
        name,
        StackKind::Hbase,
        Category::Service,
        DataSetId::ProfSearchResumes,
        kernel,
        Arc::new(move |s, sc| hbase_service(s, sc, mix)),
    )
}

/// The full 77-workload catalog (BigDataBench 3.0 analog, excluding the
/// six MPI control implementations, which the paper also keeps separate).
pub fn full_catalog() -> Vec<WorkloadDef> {
    use DataSetId as D;
    use KernelKind as K;
    use StackKind as S;
    let mut all = Vec::with_capacity(77);
    // Offline analytics: 8 kernels x {Hadoop, Spark}.
    for stack in [S::Hadoop, S::Spark] {
        for (kernel, dataset) in [
            (K::WordCount, D::Wikipedia),
            (K::Sort, D::Wikipedia),
            (K::Grep, D::Wikipedia),
            (K::KMeans, D::FacebookSocial),
            (K::PageRank, D::GoogleWebGraph),
            (K::NaiveBayes, D::AmazonReviews),
            (K::InvertedIndex, D::Wikipedia),
            (K::ConnectedComponents, D::FacebookSocial),
        ] {
            all.push(offline_def(stack, kernel, dataset));
        }
        // Second-data-set variants (Amazon reviews) for the text kernels.
        for kernel in [K::WordCount, K::Sort, K::Grep] {
            all.push(offline_def(stack, kernel, D::AmazonReviews));
        }
    }
    // Interactive analytics: 6 operators x 3 engines x 2 data sets.
    for engine in [S::Hive, S::Shark, S::Impala] {
        for kernel in [
            K::Select,
            K::Project,
            K::OrderBy,
            K::Aggregation,
            K::Join,
            K::Difference,
        ] {
            all.push(query_def(engine, kernel, QueryData::Ecommerce));
            all.push(query_def(engine, kernel, QueryData::TpcdsWeb));
        }
        for q in [K::TpcDsQ3, K::TpcDsQ6, K::TpcDsQ8, K::TpcDsQ10, K::TpcDsQ13] {
            all.push(query_def(engine, q, QueryData::TpcdsWeb));
        }
    }
    // Cloud OLTP services.
    all.push(service_def("H-Read", K::KvRead, RequestMix::read_only()));
    all.push(service_def("H-Write", K::KvWrite, RequestMix::write_only()));
    all.push(service_def("H-Scan", K::KvScan, RequestMix::scan_only()));
    all.push(service_def(
        "H-ReadWrite",
        K::KvRead,
        RequestMix {
            reads: 50,
            writes: 50,
            scans: 0,
        },
    ));
    all
}

/// The paper's 17 representative workloads (Table 2), in the paper's order.
pub fn representatives() -> Vec<WorkloadDef> {
    let catalog = full_catalog();
    const IDS: [&str; 17] = [
        "H-Read",
        "H-Difference",
        "I-SelectQuery",
        "H-TPC-DS-query3",
        "S-WordCount",
        "I-OrderBy",
        "H-Grep",
        "S-TPC-DS-query10",
        "S-Project",
        "S-OrderBy",
        "S-Kmeans",
        "S-TPC-DS-query8",
        "S-PageRank",
        "S-Grep",
        "H-WordCount",
        "H-NaiveBayes",
        "S-Sort",
    ];
    IDS.iter()
        .map(|id| {
            catalog
                .iter()
                .find(|w| w.spec.id == *id)
                // IDS is a static list pinned to the catalog; a miss
                // here is a paper-invariant violation, so abort.
                // bdb-lint: allow(panic-hygiene): static id list.
                .unwrap_or_else(|| panic!("representative {id} missing from catalog"))
                .clone()
        })
        .collect()
}

/// The number of catalog workloads each Table 2 representative stands for
/// (the parenthesized counts in the paper's Table 2). Summing to 77.
pub fn representative_weights() -> [(&'static str, usize); 17] {
    [
        ("H-Read", 10),
        ("H-Difference", 9),
        ("I-SelectQuery", 9),
        ("H-TPC-DS-query3", 9),
        ("S-WordCount", 8),
        ("I-OrderBy", 7),
        ("H-Grep", 7),
        ("S-TPC-DS-query10", 4),
        ("S-Project", 4),
        ("S-OrderBy", 3),
        ("S-Kmeans", 1),
        ("S-TPC-DS-query8", 1),
        ("S-PageRank", 1),
        ("S-Grep", 1),
        ("H-WordCount", 1),
        ("H-NaiveBayes", 1),
        ("S-Sort", 1),
    ]
}

/// The six MPI control implementations added in §4.1/§5.5.
pub fn mpi_workloads() -> Vec<WorkloadDef> {
    use DataSetId as D;
    use KernelKind as K;
    [
        (K::NaiveBayes, D::AmazonReviews),
        (K::KMeans, D::FacebookSocial),
        (K::PageRank, D::GoogleWebGraph),
        (K::Grep, D::Wikipedia),
        (K::WordCount, D::Wikipedia),
        (K::Sort, D::Wikipedia),
    ]
    .into_iter()
    .map(|(kernel, dataset)| offline_def(StackKind::Mpi, kernel, dataset))
    .collect()
}

/// Comparison-suite kernels as workload defs (ids like `"SPECINT:mcf-like"`).
pub fn suite_workloads(suite: Suite) -> Vec<WorkloadDef> {
    suites::kernel_names(suite)
        .iter()
        .enumerate()
        .map(|(i, name)| {
            def(
                format!("{suite}:{name}"),
                StackKind::Native,
                Category::DataAnalysis,
                DataSetId::Wikipedia,
                KernelKind::SuiteKernel,
                Arc::new(move |s, sc| suites::run_suite_kernel(s, sc, suite, i)),
            )
        })
        .collect()
}

/// A named slice of the workload universe — the unit the execution engine
/// and the benchmark binaries iterate over.
///
/// Using `CatalogSet` instead of calling the individual constructors keeps
/// set membership and ordering in one place, so a parallel `profile_all`
/// over a set is guaranteed to enumerate exactly what the serial figures
/// enumerated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CatalogSet {
    /// All 77 BigDataBench-like workloads ([`full_catalog`]).
    Full,
    /// The paper's 17 Table 2 representatives ([`representatives`]).
    Representatives,
    /// The six MPI control implementations ([`mpi_workloads`]).
    Mpi,
    /// One comparison suite's kernels ([`suite_workloads`]).
    Suite(Suite),
}

impl CatalogSet {
    /// Materializes the set's workloads in its canonical order.
    pub fn workloads(self) -> Vec<WorkloadDef> {
        match self {
            CatalogSet::Full => full_catalog(),
            CatalogSet::Representatives => representatives(),
            CatalogSet::Mpi => mpi_workloads(),
            CatalogSet::Suite(suite) => suite_workloads(suite),
        }
    }

    /// Number of workloads without materializing them.
    pub fn len(self) -> usize {
        match self {
            CatalogSet::Full => 77,
            CatalogSet::Representatives => 17,
            CatalogSet::Mpi => 6,
            CatalogSet::Suite(suite) => suites::kernel_names(suite).len(),
        }
    }

    /// Whether the set is empty (never, for the shipped sets).
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Every shipped set: full, representatives, MPI, then the six
    /// comparison suites in the paper's order.
    pub fn all() -> Vec<CatalogSet> {
        let mut sets = vec![
            CatalogSet::Full,
            CatalogSet::Representatives,
            CatalogSet::Mpi,
        ];
        sets.extend(ALL_SUITES.map(CatalogSet::Suite));
        sets
    }
}

impl std::fmt::Display for CatalogSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogSet::Full => f.write_str("full-catalog"),
            CatalogSet::Representatives => f.write_str("representatives"),
            CatalogSet::Mpi => f.write_str("mpi"),
            CatalogSet::Suite(suite) => write!(f, "suite:{suite}"),
        }
    }
}

/// All comparison suites in the paper's presentation order.
pub const ALL_SUITES: [Suite; 6] = [
    Suite::SpecInt,
    Suite::SpecFp,
    Suite::Parsec,
    Suite::Hpcc,
    Suite::CloudSuite,
    Suite::TpcC,
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn catalog_has_exactly_77_workloads() {
        assert_eq!(full_catalog().len(), 77);
    }

    #[test]
    fn catalog_ids_are_unique() {
        let ids: Vec<String> = full_catalog().into_iter().map(|w| w.spec.id).collect();
        let set: HashSet<_> = ids.iter().collect();
        assert_eq!(set.len(), ids.len(), "duplicate ids in {ids:?}");
    }

    #[test]
    fn representatives_match_table2() {
        let reps = representatives();
        assert_eq!(reps.len(), 17);
        assert_eq!(reps[0].spec.id, "H-Read");
        assert_eq!(reps[16].spec.id, "S-Sort");
        // Category split per Table 2: 1 service, 8 data analysis, 8 interactive.
        let services = reps
            .iter()
            .filter(|w| w.spec.category == Category::Service)
            .count();
        let analysis = reps
            .iter()
            .filter(|w| w.spec.category == Category::DataAnalysis)
            .count();
        let interactive = reps
            .iter()
            .filter(|w| w.spec.category == Category::InteractiveAnalysis)
            .count();
        assert_eq!((services, analysis, interactive), (1, 8, 8));
    }

    #[test]
    fn representative_weights_sum_to_77() {
        let total: usize = representative_weights().iter().map(|(_, n)| n).sum();
        assert_eq!(total, 77);
        let reps: HashSet<String> = representatives().into_iter().map(|w| w.spec.id).collect();
        for (id, _) in representative_weights() {
            assert!(reps.contains(id), "{id} missing");
        }
    }

    #[test]
    fn mpi_set_matches_paper() {
        let mpi = mpi_workloads();
        assert_eq!(mpi.len(), 6);
        let ids: Vec<&str> = mpi.iter().map(|w| w.spec.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "M-NaiveBayes",
                "M-Kmeans",
                "M-PageRank",
                "M-Grep",
                "M-WordCount",
                "M-Sort"
            ]
        );
    }

    #[test]
    fn catalog_sets_agree_with_constructors() {
        for set in CatalogSet::all() {
            let workloads = set.workloads();
            assert_eq!(workloads.len(), set.len(), "{set}");
            assert!(!set.is_empty(), "{set}");
        }
        let ids: Vec<String> = CatalogSet::Representatives
            .workloads()
            .into_iter()
            .map(|w| w.spec.id)
            .collect();
        let expected: Vec<String> = representatives().into_iter().map(|w| w.spec.id).collect();
        assert_eq!(ids, expected, "CatalogSet must preserve canonical order");
    }

    #[test]
    fn suite_workloads_enumerate_kernels() {
        assert_eq!(suite_workloads(Suite::Hpcc).len(), 7);
        assert_eq!(suite_workloads(Suite::Parsec).len(), 8);
        assert_eq!(suite_workloads(Suite::TpcC).len(), 1);
        let total: usize = ALL_SUITES.iter().map(|&s| suite_workloads(s).len()).sum();
        assert_eq!(total, 9 + 8 + 8 + 7 + 6 + 1);
    }
}
