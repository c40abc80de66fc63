fn main() {
    gencache_bench::paper::print_artifact("fig1_max_cache_size");
}
