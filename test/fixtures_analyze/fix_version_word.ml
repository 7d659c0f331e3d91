(* Planted version-word violations: an atomic word kept in field 0 of a
   node block, touched only through its declared stubs. *)

type node =
  | Inner of { mutable iv : int [@ei.version_word]; mutable n : int [@ei.guarded_by "iv"] }
  | Leaf of { mutable lv : int [@ei.version_word]; tag : string }

type skewed =
  | Skewed of { tag : string; mutable sv : int [@ei.version_word] }
  (* two findings: the word is not field 0, so Skewed has none there *)
  | Bare (* finding: an immediate has no field 0 *)

external version : node -> int = "ei_olc_version_get"
[@@noalloc] [@@ei.version_word "get"]

external set_version : node -> int -> unit = "ei_olc_version_set"
[@@noalloc] [@@ei.version_word "set"]

external any_version : 'a -> int = "ei_olc_version_get"
[@@noalloc] [@@ei.version_word "get"] (* finding: not typed at a node *)

let leaf () = Leaf { lv = 0; tag = "" } (* clean: construction *)
let peek = function Inner i -> i.iv | Leaf _ -> version (leaf ()) (* finding *)
let poke = function Leaf l -> l.lv <- 2 | Inner _ -> () (* finding *)
let bound = function Leaf { lv; _ } -> lv | Inner _ -> 0 (* finding *)
let bump n = set_version n (version n + 2) (* finding: atomic-rmw *)

let bump_locked m n =
  Mutex.lock m;
  set_version n (version n + 2);
  (* clean: the lock serialises the load-store pair *)
  Mutex.unlock m
