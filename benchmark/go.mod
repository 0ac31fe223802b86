module leapsandbounds/benchmark

go 1.23

require leapsandbounds v0.0.0

replace leapsandbounds => ../
