fn main() {
    gencache_bench::paper::print_artifact("thread_duplication");
}
