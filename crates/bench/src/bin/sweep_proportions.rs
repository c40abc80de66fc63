fn main() {
    gencache_bench::paper::print_artifact("sweep_proportions");
}
