fn main() {
    gencache_bench::paper::print_artifact("fig10_misses_eliminated");
}
