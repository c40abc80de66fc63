fn main() {
    gencache_bench::paper::print_artifact("ablate_defrag");
}
