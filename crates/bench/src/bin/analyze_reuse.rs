fn main() {
    gencache_bench::paper::print_artifact("analyze_reuse");
}
