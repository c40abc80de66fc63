fn main() {
    gencache_bench::paper::print_artifact("threaded_caches");
}
