module oldelephant/benchmark

go 1.24

require oldelephant v0.0.0

replace oldelephant => ../
