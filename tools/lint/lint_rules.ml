(* ei_lint rules engine.

   Table-driven AST lint over the untyped parsetree (compiler-libs):
   each rule is an entry in {!expr_rules} — a name, a one-line
   rationale, a file scope, and a checker over [Parsetree.expression] —
   so adding a rule is adding one list element.

   The poly-compare rule works without type information.  It flags an
   application of a polymorphic comparison operator unless one operand
   is *evidently immediate* (an int/char/bool literal, an application of
   a known int-returning function, a field access known to hold an int,
   a ref deref, an [: int] constraint, or a variable the per-file
   environment saw bound to one of those), and it flags the application
   regardless when an operand is *evidently structural* (a constructor,
   tuple, record, list, variant or string literal) — comparing those
   with [=] walks the polymorphic comparator over arbitrary structure.
   The classifier is deliberately conservative: code that compares ints
   through an alias the tables don't know gets annotated at the use
   site, which is the fix we want anyway. *)

open Parsetree

(* The diagnostic type is shared with ei_race through {!Report} so both
   tools print and serialise findings identically. *)
type diag = Report.diag = {
  file : string;
  line : int;
  col : int;
  rule : string;
  msg : string;
}

let compare_diag = Report.compare_diag
let pp_diag = Report.pp_diag

(* ------------------------------------------------------------------ *)
(* Scopes and tables.                                                  *)

(* Hot-path directories: modules where a polymorphic compare on the key
   path costs a C call per comparison. *)
let hot_dirs =
  [ "lib/btree/"; "lib/blindi/"; "lib/core/"; "lib/olc/"; "lib/baselines/" ]

(* Does [file]'s path contain directory component [d] ("lib/obs/")? *)
let in_dir d file =
  let has_prefix_at i =
    i + String.length d <= String.length file
    && String.equal (String.sub file i (String.length d)) d
  in
  let n = String.length file in
  let rec scan i = i < n && (has_prefix_at i || scan (i + 1)) in
  scan 0

let in_hot_path file = List.exists (fun d -> in_dir d file) hot_dirs
let in_lib file = in_dir "lib/" file

(* Harness code (drivers, measurement loops) compares keys and latencies
   just as hotly as the libraries do. *)
let in_harness file = in_dir "bench/" file || in_dir "tools/" file

(* Library code owns no std stream; the obs exposition layer does. *)
let in_quiet_lib file = in_lib file && not (in_dir "lib/obs/" file)

(* Per-file, per-rule suppressions.  Deliberately empty: genuine
   findings get fixed, not allowlisted.  Entries are
   [(rule, path_suffix)]. *)
let allowlist : (string * string) list = []

let poly_cmp_ops = [ "="; "<>"; "<"; ">"; "<="; ">=" ]
let poly_fn_ops = [ "compare"; "equal" ]
let poly_minmax_ops = [ "min"; "max" ]

(* Functions whose application is evidently an immediate value (int or
   char), keyed by the final path component, so [Array.length],
   [Bitsarr.get] and [Key.compare] all resolve. *)
let int_fns =
  [
    "+"; "-"; "*"; "/"; "~-"; "mod"; "land"; "lor"; "lxor"; "lsl"; "lsr";
    "asr"; "abs"; "succ"; "pred"; "min"; "max"; "compare"; "length";
    "code"; "get"; "unsafe_get"; "count"; "capacity"; "level"; "levels";
    "height"; "bit"; "key_bit"; "byte_at"; "diff_bit";
    "width_for_bits"; "tree_size"; "tid_slots_for"; "tid_at"; "tid_slots";
    "spec_capacity"; "std_capacity"; "memory_bytes";
    "bytes"; "node_bytes"; "leaf_bytes"; "inner_bytes"; "seqtree_bytes";
    "subtrie_bytes"; "stringtrie_bytes"; "skiplist_node_bytes";
    "int_of_float"; "int_of_char"; "to_int"; "of_int"; "int"; "hash";
    "child_index"; "lower_bound"; "random_height"; "segments";
    "transitions"; "conversions"; "index"; "compact_leaves";
    "node_child"; "shared_prefix_len";
  ]

(* Record fields known to hold ints across the index libraries. *)
let int_fields =
  [
    "n"; "pos"; "level"; "levels"; "items"; "capacity"; "key_len";
    "breathing"; "hits"; "tid"; "bytes"; "node_bytes"; "std_capacity";
    "inner_capacity"; "size_bound"; "cold_sweep_period";
    "cold_sweep_batch"; "seed"; "transitions";
    "segments"; "conversions"; "leaf_splits"; "leaf_merges";
    "search_splits"; "searches"; "scan_steps"; "tree_steps";
    "key_compares"; "inserts"; "removes"; "rebuilds"; "merges";
    "merge_work"; "ops"; "width"; "seq_levels";
    "seq_breathing"; "static_n"; "compact_leaves"; "delta_count";
    "consolidate_at"; "prefix_len"; "leaf_capacity";
  ]

(* Identifiers that are immediate constants wherever they appear. *)
let int_idents = [ "max_int"; "min_int"; "et"; "max_level" ]

(* ------------------------------------------------------------------ *)
(* Longident helpers.                                                  *)

let rec last_of = function
  | Longident.Lident s -> s
  | Longident.Ldot (_, s) -> s
  | Longident.Lapply (_, l) -> last_of l

let path_of lid = try Longident.flatten lid with Misc.Fatal_error -> []

(* [Hashtbl.f] or [Stdlib.Hashtbl.f]. *)
let is_stdlib_hashtbl lid f =
  match path_of lid with
  | [ "Hashtbl"; g ] | [ "Stdlib"; "Hashtbl"; g ] -> String.equal f g
  | _ -> false

(* Unqualified [op] or [Stdlib.op]: the polymorphic one. *)
let is_stdlib_op lid ops =
  match path_of lid with
  | [ op ] | [ "Stdlib"; op ] -> List.mem op ops
  | _ -> false

(* ------------------------------------------------------------------ *)
(* The evidently-immediate classifier.                                 *)

type env = (string, unit) Hashtbl.t
(* Variables the current file let-bound (or annotated) to an immediate
   value. *)

let int_typ ty =
  match ty.ptyp_desc with
  | Ptyp_constr ({ txt = Longident.Lident ("int" | "char" | "bool"); _ }, [])
    ->
    true
  | _ -> false

let rec immediate (env : env) e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer _ | Pconst_char _) -> true
  | Pexp_construct ({ txt = Longident.Lident ("true" | "false" | "()"); _ }, None)
    ->
    true
  | Pexp_ident { txt; _ } ->
    let n = last_of txt in
    List.mem n int_idents || Hashtbl.mem env n
  | Pexp_field (_, { txt; _ }) -> List.mem (last_of txt) int_fields
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
    let n = last_of txt in
    String.equal n "!" || List.mem n int_fns
  | Pexp_constraint (_, ty) -> int_typ ty
  | Pexp_ifthenelse (_, a, Some b) -> immediate env a && immediate env b
  | _ -> false

(* Values whose comparison with a polymorphic operator walks structure:
   always a finding, whatever the other operand. *)
let structural e =
  match e.pexp_desc with
  | Pexp_construct ({ txt; _ }, _) -> (
    match last_of txt with "true" | "false" | "()" -> false | _ -> true)
  | Pexp_tuple _ | Pexp_record _ | Pexp_array _ | Pexp_variant _ -> true
  | Pexp_constant (Pconst_string _) -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Rule table.                                                         *)

type emit = loc:Location.t -> rule:string -> string -> unit

type expr_rule = {
  name : string;
  short : string;  (* one-line rationale, shown by --rules *)
  applies : string -> bool;  (* file-path scope of the rule *)
  check : emit:emit -> env -> expression -> unit;
}

let everywhere (_ : string) = true

let two_args args =
  match args with
  | [ (Asttypes.Nolabel, a); (Asttypes.Nolabel, b) ] -> Some (a, b)
  | _ -> None

let rule_poly_compare =
  {
    name = "poly-compare";
    short =
      "hot-path comparisons must be monomorphic (Key.compare, \
       String.compare, Int.equal, or evidently-int operands)";
    applies = (fun file -> in_hot_path file || in_harness file);
    check =
      (fun ~emit env e ->
        match e.pexp_desc with
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) ->
          let flag op why = emit ~loc ~rule:"poly-compare" (why op) in
          let op = last_of txt in
          let cmp = is_stdlib_op txt poly_cmp_ops in
          let fn = is_stdlib_op txt poly_fn_ops in
          let mm = is_stdlib_op txt poly_minmax_ops in
          if cmp || fn || mm then (
            match two_args args with
            | Some (a, b) ->
              if structural a || structural b then
                flag op
                  (Printf.sprintf
                     "polymorphic (%s) over a structured value; match on it \
                      or use a monomorphic equality")
              else if fn then
                flag op
                  (Printf.sprintf
                     "polymorphic %s; use Key.compare / String.compare / \
                      Int.equal")
              else if not (immediate env a || immediate env b) then
                flag op
                  (Printf.sprintf
                     "polymorphic (%s) on operands not evidently immediate; \
                      use a monomorphic comparison or annotate an operand \
                      with its (immediate) type")
            | None ->
              (* Partial application: cannot see the operands. *)
              flag op
                (Printf.sprintf
                   "partial application of polymorphic (%s); use a \
                    monomorphic comparison"))
        | _ -> ());
  }

let rule_hashtbl =
  {
    name = "hashtbl";
    short =
      "Hashtbl.hash folds a bounded key prefix and the default Hashtbl is \
       keyed on it; use Ei_util.Fnv / Ei_util.Strtbl for string keys";
    applies = in_lib;
    check =
      (fun ~emit _env e ->
        match e.pexp_desc with
        | Pexp_ident { txt; loc } when is_stdlib_hashtbl txt "hash" ->
          emit ~loc ~rule:"hashtbl"
            "Hashtbl.hash truncates variable-length keys (bounded-prefix \
             fold); use Ei_util.Fnv.hash"
        | Pexp_ident { txt; loc } when is_stdlib_hashtbl txt "create" ->
          emit ~loc ~rule:"hashtbl"
            "default Hashtbl uses the truncating polymorphic hash; use \
             Ei_util.Strtbl (seeded FNV-1a) for string keys"
        | _ -> ());
  }

let rule_obj_magic =
  {
    name = "obj-magic";
    short = "Obj.magic is never acceptable in library code";
    applies = everywhere;
    check =
      (fun ~emit _env e ->
        match e.pexp_desc with
        | Pexp_ident { txt; loc } when
            (match path_of txt with
            | [ "Obj"; "magic" ] | [ "Stdlib"; "Obj"; "magic" ] -> true
            | _ -> false) ->
          emit ~loc ~rule:"obj-magic" "Obj.magic defeats the type system"
        | _ -> ());
  }

let rule_no_abort =
  {
    name = "no-abort";
    short =
      "library code must not abort anonymously: raise Ei_util.Invariant \
       (Broken/impossible) instead of failwith / assert false";
    applies = in_lib;
    check =
      (fun ~emit _env e ->
        match e.pexp_desc with
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, _)
          when is_stdlib_op txt [ "failwith" ] ->
          emit ~loc ~rule:"no-abort"
            "failwith raises an anonymous Failure; use \
             Ei_util.Invariant.broken with a diagnosis"
        | Pexp_assert
            {
              pexp_desc =
                Pexp_construct ({ txt = Longident.Lident "false"; _ }, None);
              pexp_loc = loc;
              _;
            } ->
          emit ~loc ~rule:"no-abort"
            "assert false aborts without a diagnosis; use \
             Ei_util.Invariant.impossible"
        | _ -> ());
  }

let rule_no_swallow =
  {
    name = "no-swallow";
    short =
      "a handler of the form [with _ -> ()] silently discards the \
       exception; match the exceptions you mean and park or re-raise \
       the rest";
    applies = everywhere;
    check =
      (fun ~emit _env e ->
        match e.pexp_desc with
        | Pexp_try (_, cases) ->
          List.iter
            (fun c ->
              let unit_body =
                match c.pc_rhs.pexp_desc with
                | Pexp_construct ({ txt = Longident.Lident "()"; _ }, None) ->
                  true
                | _ -> false
              in
              match c.pc_lhs.ppat_desc with
              | (Ppat_any | Ppat_var _)
                when Option.is_none c.pc_guard && unit_body ->
                emit ~loc:c.pc_lhs.ppat_loc ~rule:"no-swallow"
                  "catch-all handler swallows the exception (a crashed \
                   domain would die silently); match the exceptions you \
                   expect, or record the failure before dropping it"
              | _ -> ())
            cases
        | _ -> ());
  }

(* Bare printing channels in library code bypass the observability
   layer: the output interleaves arbitrarily across domains, cannot be
   scraped, and taints benchmark stdout.  Formatting into strings
   (Printf.sprintf / Format.asprintf) stays fine. *)
let print_idents =
  [
    "print_endline"; "print_string"; "print_newline"; "print_int";
    "print_char"; "print_float"; "print_bytes"; "prerr_endline";
    "prerr_string"; "prerr_newline"; "prerr_int";
  ]

let is_print_path lid =
  match path_of lid with
  | [ ("Printf" | "Format"); ("printf" | "eprintf") ]
  | [ "Stdlib"; ("Printf" | "Format"); ("printf" | "eprintf") ] ->
    true
  | _ -> false

let rule_no_print =
  {
    name = "no-print";
    short =
      "library code must not write to std streams (Printf.printf, \
       print_endline, ...); record through Ei_obs or return strings \
       (lib/obs and CLI/bench code are exempt)";
    applies = in_quiet_lib;
    check =
      (fun ~emit _env e ->
        match e.pexp_desc with
        | Pexp_ident { txt; loc } when is_stdlib_op txt print_idents ->
          emit ~loc ~rule:"no-print"
            (Printf.sprintf
               "%s writes to a std stream from library code; record \
                through Ei_obs or return the string to the caller"
               (last_of txt))
        | Pexp_ident { txt; loc } when is_print_path txt ->
          emit ~loc ~rule:"no-print"
            "Printf/Format printf writes to a std stream from library \
             code; use Printf.sprintf and return it, or record through \
             Ei_obs"
        | _ -> ());
  }

(* --- span-leak ----------------------------------------------------- *)

(* A [let t = Trace.start () in ...] that can finish without a matching
   [Trace.span _ ~start_ns:t _] leaves an unclosed span: the slice never
   reaches the ring and the request's flow silently loses a link.  The
   reachability check is structural: sequences and lets cover when any
   element covers; if/match/try require every branch (exception cases
   included) to cover.  Two idioms are recognised as closing on all
   paths: gating the emit on the start value itself ([if t > 0 then
   ... span ...] — the skipped path is the tracing-off path, where
   [Trace.start] returned 0 and there is no span to close), and the
   [match body () with () -> span | exception e -> span; raise e]
   bracket. *)

let is_trace_start e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
    match path_of txt with
    | [ "Trace"; "start" ] | [ "Ei_obs"; "Trace"; "start" ] -> true
    | _ -> false)
  | _ -> false

let is_var v e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident n; _ } -> String.equal n v
  | _ -> false

let mentions v e =
  let found = ref false in
  let super = Ast_iterator.default_iterator in
  let it =
    {
      super with
      Ast_iterator.expr =
        (fun it x ->
          if is_var v x then found := true;
          super.Ast_iterator.expr it x);
    }
  in
  it.Ast_iterator.expr it e;
  !found

let rec span_reaches v e =
  match e.pexp_desc with
  | Pexp_apply (_, args) ->
    (* Any application receiving [v] counts as the close — in practice
       [Trace.span _ ~start_ns:v _], but a helper that takes the start
       is a close too. *)
    List.exists (fun (_, a) -> is_var v a || span_reaches v a) args
  | Pexp_sequence (a, b) -> span_reaches v a || span_reaches v b
  | Pexp_let (_, vbs, body) ->
    List.exists (fun vb -> span_reaches v vb.pvb_expr) vbs
    || span_reaches v body
  | Pexp_ifthenelse (c, a, b) ->
    if mentions v c then
      (* Gated on the start value: the else path is tracing-off. *)
      span_reaches v a
    else
      span_reaches v a
      && (match b with Some b -> span_reaches v b | None -> false)
  | Pexp_match (scrut, cases) ->
    span_reaches v scrut
    || (match cases with
       | [] -> false
       | _ :: _ -> List.for_all (fun c -> span_reaches v c.pc_rhs) cases)
  | Pexp_try (body, cases) -> (
    span_reaches v body
    &&
    match cases with
    | [] -> false
    | _ :: _ -> List.for_all (fun c -> span_reaches v c.pc_rhs) cases)
  | Pexp_constraint (x, _) | Pexp_open (_, x) | Pexp_letmodule (_, _, x) ->
    span_reaches v x
  | _ -> false

let rule_span_leak =
  {
    name = "span-leak";
    short =
      "every [let t = Trace.start ()] must reach a [Trace.span _ \
       ~start_ns:t _] on all branches (exception cases included); gate \
       the emit on [t > 0] or use the match/exception bracket";
    applies = everywhere;
    check =
      (fun ~emit _env e ->
        match e.pexp_desc with
        | Pexp_let (_, vbs, cont) ->
          List.iter
            (fun vb ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt = v; _ } when is_trace_start vb.pvb_expr ->
                if not (span_reaches v cont) then
                  emit ~loc:vb.pvb_pat.ppat_loc ~rule:"span-leak"
                    (Printf.sprintf
                       "span started as %s may finish without a matching \
                        Trace.span on every branch (exception paths \
                        included); close it on all paths or gate the \
                        branch on %s itself"
                       v v)
              | _ -> ())
            vbs
        | _ -> ());
  }

let expr_rules =
  [
    rule_poly_compare; rule_hashtbl; rule_obj_magic; rule_no_abort;
    rule_no_swallow; rule_no_print; rule_span_leak;
  ]

(* ------------------------------------------------------------------ *)
(* Per-file driver.                                                    *)

let allowlisted ~file ~rule =
  List.exists
    (fun (r, suffix) ->
      String.equal r rule
      && String.length file >= String.length suffix
      && String.equal
           (String.sub file
              (String.length file - String.length suffix)
              (String.length suffix))
           suffix)
    allowlist

(* Track immediate-valued bindings: [let n = ...], [for i = ...],
   [fun (x : int) ->], and constrained let patterns. *)
let bind_env env pat rhs =
  match (pat.ppat_desc, rhs) with
  | Ppat_var { txt; _ }, Some e when immediate env e ->
    Hashtbl.replace env txt ()
  | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, ty), _
    when int_typ ty ->
    Hashtbl.replace env txt ()
  | _ -> ()

let lint_structure ~file structure =
  let diags = ref [] in
  let emit ~loc ~rule msg =
    if not (allowlisted ~file ~rule) then begin
      let p = loc.Location.loc_start in
      diags :=
        {
          file;
          line = p.Lexing.pos_lnum;
          col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
          rule;
          msg;
        }
        :: !diags
    end
  in
  let env : env = Hashtbl.create 64 in
  let active = List.filter (fun r -> r.applies file) expr_rules in
  let super = Ast_iterator.default_iterator in
  let iter =
    {
      super with
      Ast_iterator.expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_let (_, vbs, _) ->
            List.iter (fun vb -> bind_env env vb.pvb_pat (Some vb.pvb_expr)) vbs
          | Pexp_fun (_, _, pat, _) -> bind_env env pat None
          | Pexp_for (pat, _, _, _, _) -> (
            match pat.ppat_desc with
            | Ppat_var { txt; _ } -> Hashtbl.replace env txt ()
            | _ -> ())
          | _ -> ());
          List.iter (fun r -> r.check ~emit env e) active;
          super.Ast_iterator.expr it e);
      Ast_iterator.value_binding =
        (fun it vb ->
          bind_env env vb.pvb_pat (Some vb.pvb_expr);
          super.Ast_iterator.value_binding it vb);
    }
  in
  iter.Ast_iterator.structure iter structure;
  List.sort_uniq compare_diag !diags

let parse_diag ~file exn =
  let line, col, msg =
    match Location.error_of_exn exn with
    | Some (`Ok report) ->
      let loc = report.Location.main.Location.loc in
      let p = loc.Location.loc_start in
      ( p.Lexing.pos_lnum,
        p.Lexing.pos_cnum - p.Lexing.pos_bol,
        Format.asprintf "%t" report.Location.main.Location.txt )
    | Some `Already_displayed | None -> (1, 0, Printexc.to_string exn)
  in
  [ { file; line; col; rule = "syntax"; msg } ]

let lint_file ~path ~display =
  if Filename.check_suffix path ".mli" then
    (* Interfaces carry no expressions; parsing still validates them. *)
    try
      ignore (Pparse.parse_interface ~tool_name:"ei_lint" path);
      []
    with exn -> parse_diag ~file:display exn
  else
    match Pparse.parse_implementation ~tool_name:"ei_lint" path with
    | structure -> lint_structure ~file:display structure
    | exception exn -> parse_diag ~file:display exn

(* Every library module must have an interface: the .mli is where the
   invariants live, and unconstrained exports are how internals leak. *)
let check_mli_coverage ~ml_files =
  List.filter_map
    (fun (path, display) ->
      if Sys.file_exists (path ^ "i") then None
      else
        Some
          {
            file = display;
            line = 1;
            col = 0;
            rule = "mli-coverage";
            msg = "library module without an interface; add a .mli";
          })
    ml_files

let rules_help () =
  String.concat "\n"
    (List.map (fun r -> Printf.sprintf "%-14s %s" r.name r.short) expr_rules
    @ [
        Printf.sprintf "%-14s %s" "mli-coverage"
          "every library module must have a .mli";
      ])
