fn main() {
    gencache_bench::paper::print_artifact("table2_costs");
}
