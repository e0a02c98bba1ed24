module eden/benchmark

go 1.22

require eden v0.0.0

replace eden => ../
