module bbsched/bench

go 1.24

require bbsched v0.0.0

replace bbsched => ../
