fn main() {
    gencache_bench::paper::print_artifact("best_configs");
}
