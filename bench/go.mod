module freshcache/bench

go 1.24

require freshcache v0.0.0

replace freshcache => ../
