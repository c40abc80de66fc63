fn main() {
    gencache_bench::paper::print_artifact("table1_benchmarks");
}
