fn main() {
    gencache_bench::paper::print_artifact("fig9_miss_rates");
}
