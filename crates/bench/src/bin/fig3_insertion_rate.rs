fn main() {
    gencache_bench::paper::print_artifact("fig3_insertion_rate");
}
