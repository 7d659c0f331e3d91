(* ei_race rules engine: typed analysis over the .cmt binary
   annotations dune produces for every module.

   The typedtree — where paths are resolved and mutability is explicit
   — carries what the untyped ei_lint cannot see: the concurrency
   discipline (four rule families below) and which unit references
   which export ([dead-export] / [test-only-export], rule 5 at the end
   of this file).  The concurrency families:

   - [unguarded-state] / [unguarded-access] (shared-state inventory):
     every module-level and record-level mutable datum is classified
     (Atomic.t, Mutex, Condition, ref, array, hash table, mutable
     field); a plain mutable datum must carry [@ei.guarded_by
     "<lock-expr>"] (a lock protects it) or [@ei.single_domain] (it
     never crosses domains), field-level or on the whole type
     ([@@...]); accesses to unannotated mutable data inside a
     [Domain.spawn] closure are flagged at the use site.  The full
     classification is exported as a machine-readable inventory.
     A field marked [@ei.version_word] is an atomic word kept inside
     its record (the OLC node's version): it must be a mutable int at
     field 0 of every constructor of its type, and only construction
     and the externals marked [@@ei.version_word "<op>"] (op = get,
     compare_and_set or set, typed at that type) may touch it; any
     other read, write, copy or pattern on it is a finding.

   - [lock-leak] / [lock-divergent] / [lock-raise] / [lock-loop]
     (release discipline): an intra-function abstract walk tracks the
     set of write locks held — acquired through [upgrade_or_restart],
     a successful [try_upgrade] condition, or [Mutex.lock] — and
     requires every exit to release them: normal exits must hold
     nothing ([lock-leak], anchored at the acquire site), branches of
     a conditional must agree ([lock-divergent]), a syntactic raise
     must not fire while a lock is held unless an enclosing [try] or
     [critical] releases it on the exception edge ([lock-raise]), and
     a loop body must preserve the held set ([lock-loop]).

   - [yield-point]: a [while] loop or self-recursive function whose
     body (transitively through same-module calls) touches
     synchronization (Atomic / Mutex / Condition / Domain operations,
     or the Restart / Fault.Injected retry protocols) must contain a
     yield site ([Fault.point] / [Fault.fire], [Condition.wait],
     [Unix.sleepf], [Domain.join], or a blocking queue operation) so
     the ei_sim cooperative scheduler can interleave it.
     [Domain.cpu_relax] is not a yield site: the simulator cannot
     preempt there.

   - [atomic-rmw]: [Atomic.set a (f (Atomic.get a))] outside a
     lock-held region loses concurrent updates between the load and
     the store; use [fetch_and_add] / [compare_and_set].  The
     version-word stubs count as the Atomic operations they name
     (here and as synchronization for [yield-point]).  (Inside a
     critical section the pattern is a plain unshared update — the
     version-lock release in Btree_olc is the baselined example.)

   The walk is deliberately unsound-but-quiet: only syntactic raises
   count as exception edges (a call is assumed not to raise), lock
   identity is the rendered source expression, and lambdas other than
   [critical]'s body run in a fresh context.  The point is a cheap
   gate that catches the discipline violations we actually write, with
   a baseline file for the deliberate exceptions. *)

open Typedtree

module S = Set.Make (String)

type finding = { diag : Report.diag; slug : string }

type inv_entry = {
  inv_file : string;
  inv_line : int;
  inv_name : string;
  inv_kind : string;
  inv_guard : string option; (* None = unannotated *)
}

type result = { findings : finding list; inventory : inv_entry list }

(* ------------------------------------------------------------------ *)
(* Paths and rendering.                                                *)

let rec path_comps = function
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (p, s) -> path_comps p @ [ s ]
  | Path.Papply (p, q) -> path_comps p @ path_comps q
  | Path.Pextra_ty (p, _) -> path_comps p

(* "Ei_fault__Fault" -> "Fault": strip the dune wrapping prefix so
   module matching works on source names. *)
let module_tail name =
  let n = String.length name in
  let rec find i last =
    if i + 1 >= n then last
    else if Char.equal name.[i] '_' && Char.equal name.[i + 1] '_' then
      find (i + 2) (i + 2)
    else find (i + 1) last
  in
  let j = find 0 0 in
  if j = 0 || j >= n then name else String.sub name j (n - j)

(* Path as [module; ...; value] with Stdlib stripped and wrapping
   prefixes removed. *)
let norm_path p =
  let comps = List.map module_tail (path_comps p) in
  match comps with "Stdlib" :: rest -> rest | comps -> comps

let path_last p = match List.rev (path_comps p) with x :: _ -> x | [] -> ""

(* Render a lock / atomic expression to a stable identity string. *)
let rec render e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> path_last p
  | Texp_field (e1, _, lbl) -> render e1 ^ "." ^ lbl.Types.lbl_name
  | Texp_apply (f, args) ->
    render f ^ "("
    ^ String.concat ","
        (List.map (function _, Some a -> render a | _, None -> "_") args)
    ^ ")"
  | _ ->
    let p = e.exp_loc.Location.loc_start in
    Printf.sprintf "<expr@%d:%d>" p.Lexing.pos_lnum
      (p.Lexing.pos_cnum - p.Lexing.pos_bol)

(* ------------------------------------------------------------------ *)
(* Annotations.                                                        *)

type guard = Guarded_by of string | Single_domain | Version_word

let string_payload = function
  | Parsetree.PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
    Some s
  | _ -> None

let find_guard (attrs : Parsetree.attributes) =
  List.find_map
    (fun (a : Parsetree.attribute) ->
      match a.attr_name.txt with
      | "ei.guarded_by" -> (
        match string_payload a.attr_payload with
        | Some s -> Some (Guarded_by s)
        | None -> Some (Guarded_by "<malformed>"))
      | "ei.single_domain" -> Some Single_domain
      | "ei.version_word" -> Some Version_word
      | _ -> None)
    attrs

let guard_str = function
  | Guarded_by s -> "guarded_by " ^ s
  | Single_domain -> "single_domain"
  | Version_word -> "version_word"

(* The Atomic operation a version-word stub declares: an external
   carrying [@@ei.version_word "<op>"]. *)
let version_stub (vd : Types.value_description) =
  match vd.val_kind with
  | Types.Val_prim _ ->
    List.find_map
      (fun (a : Parsetree.attribute) ->
        if String.equal a.attr_name.txt "ei.version_word" then
          Some (Option.value (string_payload a.attr_payload) ~default:"")
        else None)
      vd.val_attributes
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Annotation registry: label-declaration location -> guard.           *)
(* Built over every scanned cmt first, so a field access in one        *)
(* module sees annotations on a type declared in another.              *)

type loc_key = string * int * int

let key_of_loc (loc : Location.t) : loc_key =
  let p = loc.Location.loc_start in
  ( Filename.basename p.Lexing.pos_fname,
    p.Lexing.pos_lnum,
    p.Lexing.pos_cnum - p.Lexing.pos_bol )

type registry = (loc_key, guard) Hashtbl.t

let label_guard ~type_guard (ld : label_declaration) =
  match find_guard ld.ld_attributes with
  | Some g -> Some g
  | None -> (
    match find_guard ld.ld_type.ctyp_attributes with
    | Some g -> Some g
    | None -> type_guard)

let register_labels (reg : registry) ~type_guard lds =
  List.iter
    (fun ld ->
      match label_guard ~type_guard ld with
      | Some g -> Hashtbl.replace reg (key_of_loc ld.ld_loc) g
      | None -> ())
    lds

let registry_of_structure (reg : registry) (str : structure) =
  let it =
    {
      Tast_iterator.default_iterator with
      type_declaration =
        (fun _ (td : type_declaration) ->
          let type_guard = find_guard td.typ_attributes in
          match td.typ_kind with
          | Ttype_record lds -> register_labels reg ~type_guard lds
          | Ttype_variant cds ->
            List.iter
              (fun cd ->
                match cd.cd_args with
                | Cstr_record lds -> register_labels reg ~type_guard lds
                | Cstr_tuple _ -> ())
              cds
          | _ -> ());
    }
  in
  it.structure it str

let lookup_label (reg : registry) (lbl : Types.label_description) =
  match find_guard lbl.Types.lbl_attributes with
  | Some g -> Some g
  | None -> Hashtbl.find_opt reg (key_of_loc lbl.Types.lbl_loc)

(* ------------------------------------------------------------------ *)
(* Per-module analysis context.                                        *)

type ctx = {
  file : string; (* display path for diagnostics *)
  reg : registry;
  mutable findings : finding list;
  mutable inventory : inv_entry list;
  mutable slug : string; (* enclosing top-level binding *)
  mutable no_rule2 : bool; (* inside a lock-primitive definition *)
  (* module-level mutable bindings without an annotation, keyed by
     declaration location so shadowing cannot confuse the lookup *)
  unguarded_idents : (loc_key, string) Hashtbl.t;
  (* every value binding in the module, for the yield-point closure *)
  defs : (string, expression) Hashtbl.t;
  (* types declared here with an [@ei.version_word] field *)
  mutable version_types : S.t;
}

let emit ctx ~loc ~rule msg =
  let diag = Report.of_location ~rule ~msg loc ~file:ctx.file in
  ctx.findings <- { diag; slug = ctx.slug } :: ctx.findings

let add_inv ctx ~loc ~name ~kind ~guard =
  let p = loc.Location.loc_start in
  ctx.inventory <-
    {
      inv_file = ctx.file;
      inv_line = p.Lexing.pos_lnum;
      inv_name = name;
      inv_kind = kind;
      inv_guard = guard;
    }
    :: ctx.inventory

(* ------------------------------------------------------------------ *)
(* Rule 1: shared-state inventory.                                     *)

let annotation_advice =
  "annotate [@ei.guarded_by \"<lock>\"] or [@ei.single_domain], or make \
   it atomic"

(* Classify a module-level binding's right-hand side. *)
let classify_binding e =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) -> (
    match norm_path p with
    | [ "Atomic"; "make" ] -> Some ("atomic", false)
    | [ "Mutex"; "create" ] -> Some ("mutex", false)
    | [ "Condition"; "create" ] -> Some ("condition", false)
    | [ "ref" ] -> Some ("ref", true)
    | [ "Array"; ("make" | "init" | "create" | "make_matrix") ] ->
      Some ("array", true)
    | [ ("Hashtbl" | "Strtbl"); "create" ] -> Some ("table", true)
    | _ -> None)
  | Texp_array _ -> Some ("array", true)
  | _ -> None

(* Is this core_type an array whose elements are not atomic?  Record
   label types arrive wrapped in [Ttyp_poly]. *)
let rec plain_array_type (ct : core_type) =
  match ct.ctyp_desc with
  | Ttyp_constr (p, _, [ elt ]) when String.equal (path_last p) "array" -> (
    match elt.ctyp_desc with
    | Ttyp_constr (ep, _, _) when String.equal (path_last ep) "t" -> (
      match List.rev (norm_path ep) with
      | _ :: "Atomic" :: _ -> false
      | _ -> true)
    | _ -> true)
  | Ttyp_alias (ct, _) | Ttyp_poly (_, ct) -> plain_array_type ct
  | _ -> false

let is_version_word ~type_guard ld =
  match label_guard ~type_guard ld with
  | Some Version_word -> true
  | _ -> false

let rec is_int_type (ct : core_type) =
  match ct.ctyp_desc with
  | Ttyp_constr (p, _, []) -> String.equal (path_last p) "int"
  | Ttyp_poly (_, ct) -> is_int_type ct
  | _ -> false

let check_type_declaration ctx (td : type_declaration) =
  let type_guard = find_guard td.typ_attributes in
  let tname = td.typ_name.txt in
  let check_label i (ld : label_declaration) =
    let guard = label_guard ~type_guard ld in
    let name = tname ^ "." ^ ld.ld_name.txt in
    let mutable_field =
      match ld.ld_mutable with Asttypes.Mutable -> true | _ -> false
    in
    let array_field = plain_array_type ld.ld_type in
    match guard with
    | Some Version_word ->
      add_inv ctx ~loc:ld.ld_loc ~name ~kind:"version-word"
        ~guard:(Some (guard_str Version_word));
      (* The stubs CAS and store Field(v, 0) with no write barrier. *)
      if i > 0 || (not mutable_field) || not (is_int_type ld.ld_type) then
        emit ctx ~loc:ld.ld_loc ~rule:"unguarded-state"
          (Printf.sprintf
             "version word %s must be a mutable int at field 0: the \
              version-word stubs operate on Field(v, 0)"
             name)
    | _ ->
      if mutable_field || array_field then begin
        let kind = if mutable_field then "mutable-field" else "array-field" in
        add_inv ctx ~loc:ld.ld_loc ~name ~kind
          ~guard:(Option.map guard_str guard);
        if Option.is_none guard then
          emit ctx ~loc:ld.ld_loc ~rule:"unguarded-state"
            (Printf.sprintf "%s field %s has no concurrency annotation; %s"
               (if mutable_field then "mutable" else "array")
               name annotation_advice)
      end
  in
  match td.typ_kind with
  | Ttype_record lds ->
    List.iteri check_label lds;
    if List.exists (is_version_word ~type_guard) lds then
      ctx.version_types <- S.add tname ctx.version_types
  | Ttype_variant cds ->
    let lds_of cd =
      match cd.cd_args with Cstr_record lds -> lds | Cstr_tuple _ -> []
    in
    List.iter (fun cd -> List.iteri check_label (lds_of cd)) cds;
    let has_word cd = List.exists (is_version_word ~type_guard) (lds_of cd) in
    if List.exists has_word cds then begin
      ctx.version_types <- S.add tname ctx.version_types;
      (* A stub typed at [tname] may get any constructor's value. *)
      List.iter
        (fun cd ->
          match lds_of cd with
          | ld :: _ when is_version_word ~type_guard ld -> ()
          | _ ->
            emit ctx ~loc:cd.cd_loc ~rule:"unguarded-state"
              (Printf.sprintf
                 "constructor %s of %s has no version word at field 0, \
                  but the version-word stubs accept every %s"
                 cd.cd_name.txt tname tname))
        cds
    end
  | _ -> ()

(* A declared version-word stub names an Atomic operation and takes a
   type declared above with a version word as its first argument. *)
let check_stub ctx (vd : value_description) =
  match version_stub vd.val_val with
  | None -> ()
  | Some op ->
    let name = vd.val_name.txt in
    if not (List.mem op [ "get"; "compare_and_set"; "set" ]) then
      emit ctx ~loc:vd.val_loc ~rule:"unguarded-state"
        (Printf.sprintf
           "version-word stub %s names %S; expected get, compare_and_set \
            or set"
           name op);
    let typed_at_version_type =
      match vd.val_desc.ctyp_desc with
      | Ttyp_arrow (_, { ctyp_desc = Ttyp_constr (Path.Pident id, _, _); _ }, _)
        ->
        S.mem (Ident.name id) ctx.version_types
      | _ -> false
    in
    if not typed_at_version_type then
      emit ctx ~loc:vd.val_loc ~rule:"unguarded-state"
        (Printf.sprintf
           "version-word stub %s must take a type declared in this module \
            with a version word at field 0"
           name)

(* Direct uses of a version-word field: everything but construction
   goes through the stubs. *)
let check_version_uses ctx (vb : value_binding) =
  let flag loc what (lbl : Types.label_description) =
    match lookup_label ctx.reg lbl with
    | Some Version_word ->
      emit ctx ~loc ~rule:"unguarded-state"
        (Printf.sprintf
           "%s version word %s directly; only the version-word stubs may \
            touch it"
           what lbl.Types.lbl_name)
    | _ -> ()
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.exp_desc with
          | Texp_field (_, _, lbl) -> flag e.exp_loc "reads" lbl
          | Texp_setfield (_, _, lbl, _) -> flag e.exp_loc "writes" lbl
          | Texp_record { fields; extended_expression = Some _; _ } ->
            Array.iter
              (function
                | lbl, Kept _ -> flag e.exp_loc "copies" lbl
                | _, Overridden _ -> ())
              fields
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
      pat =
        (fun (type k) sub (p : k general_pattern) ->
          (match p.pat_desc with
          | Tpat_record (fields, _) ->
            List.iter (fun (_, lbl, _) -> flag p.pat_loc "matches" lbl) fields
          | _ -> ());
          Tast_iterator.default_iterator.pat sub p);
    }
  in
  it.value_binding it vb

(* The bound name of a simple [let x = ...] binding.  A type-constrained
   [let x : t = ...] arrives as [Tpat_alias] (the typechecker wraps the
   constraint), so matching [Tpat_var] alone misses it. *)
let pat_var_name (p : pattern) =
  match p.pat_desc with
  | Tpat_var (_, name) | Tpat_alias (_, _, name) -> Some name.txt
  | _ -> None

let check_module_binding ctx (vb : value_binding) =
  match pat_var_name vb.vb_pat with
  | Some name -> (
    match classify_binding vb.vb_expr with
    | None -> ()
    | Some (kind, needs_guard) ->
      let guard =
        match find_guard vb.vb_attributes with
        | Some g -> Some g
        | None -> find_guard vb.vb_expr.exp_attributes
      in
      add_inv ctx ~loc:vb.vb_pat.pat_loc ~name ~kind
        ~guard:(Option.map guard_str guard);
      if needs_guard then
        if Option.is_none guard then begin
          Hashtbl.replace ctx.unguarded_idents
            (key_of_loc vb.vb_pat.pat_loc)
            name;
          emit ctx ~loc:vb.vb_pat.pat_loc ~rule:"unguarded-state"
            (Printf.sprintf
               "module-level %s %s has no concurrency annotation; %s" kind
               name annotation_advice)
        end)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Rules 2 and 4: the lock-discipline walk.                            *)

type wst = {
  held : (string * Location.t) list; (* lock -> acquire site *)
  prot : S.t; (* released on the exception edge by an enclosing handler *)
  diverged : bool;
  in_spawn : bool;
}

let held_names st = S.of_list (List.map fst st.held)

let acquire st lock loc =
  if List.mem_assoc lock st.held then st
  else { st with held = (lock, loc) :: st.held }

let release st lock =
  (* Releasing a lock this function never acquired is assumed to be the
     caller's lock (helper functions): ignored, not a finding. *)
  { st with held = List.remove_assoc lock st.held }

let raising_fn p =
  match List.rev (norm_path p) with
  | ("raise" | "raise_notrace" | "failwith" | "invalid_arg") :: _ -> true
  | ("impossible" | "broken" | "brokenf") :: "Invariant" :: _ -> true
  | _ -> false

(* The version-lock primitives implement the discipline rule 2 checks;
   walking their bodies against it would flag the implementation. *)
let lock_primitives =
  S.of_list
    [
      "read_lock"; "try_upgrade"; "upgrade_or_restart"; "write_unlock";
      "write_abort"; "critical"; "validate"; "check";
    ]

let in_olc ctx = String.equal (Filename.basename ctx.file) "btree_olc.ml"

let nolabel_args args =
  List.filter_map
    (function Asttypes.Nolabel, Some a -> Some a | _ -> None)
    args

(* The Atomic operation an applied identifier performs: [Atomic.<op>]
   by path, or a version-word stub by its declared op. *)
let atomic_op p vd =
  match version_stub vd with
  | Some op -> Some op
  | None -> ( match norm_path p with [ "Atomic"; op ] -> Some op | _ -> None)

let is_atomic op p vd = Option.equal String.equal (atomic_op p vd) (Some op)

(* Does [e] syntactically contain [Atomic.get] of [target]? *)
let contains_get target e =
  let found = ref false in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub x ->
          (match x.exp_desc with
          | Texp_apply ({ exp_desc = Texp_ident (p, _, vd); _ }, args) -> (
            match nolabel_args args with
            | [ a ] when is_atomic "get" p vd && String.equal (render a) target
              ->
              found := true
            | _ -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr sub x);
    }
  in
  it.expr it e;
  !found

(* Immediate sub-expressions of [e], via a one-level iterator. *)
let subexprs e =
  let acc = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      expr = (fun _ x -> acc := x :: !acc);
    }
  in
  Tast_iterator.default_iterator.expr it e;
  List.rev !acc

let rec walk ctx st e =
  match e.exp_desc with
  | Texp_ident (p, _, _) ->
    (match p with
    | Path.Pident id when st.in_spawn -> (
      (* A read or write of unannotated module-level mutable state from
         inside a spawned closure. *)
      let name = Ident.name id in
      let is_unguarded =
        Hashtbl.fold
          (fun _ n acc -> acc || String.equal n name)
          ctx.unguarded_idents false
      in
      if is_unguarded then
        emit ctx ~loc:e.exp_loc ~rule:"unguarded-access"
          (Printf.sprintf
             "access to unannotated module-level mutable %s inside a \
              Domain.spawn closure"
             name))
    | _ -> ());
    st
  | Texp_constant _ | Texp_unreachable -> st
  | Texp_let (_, vbs, body) ->
    let st = List.fold_left (fun st vb -> walk ctx st vb.vb_expr) st vbs in
    walk ctx st body
  | Texp_function { cases; _ } ->
    (* A lambda body inherits the held set — helpers defined inside a
       locked region (or callbacks invoked there) run with the lock
       held — but locks it acquires itself must not outlive it. *)
    List.iter
      (fun c ->
        let out = walk ctx st c.c_rhs in
        if (not ctx.no_rule2) && not out.diverged then
          List.iter
            (fun (l, loc) ->
              if not (List.mem_assoc l st.held) then
                emit ctx ~loc ~rule:"lock-leak"
                  (Printf.sprintf
                     "write lock %s acquired here is still held at \
                      function exit on some path"
                     l))
            out.held)
      cases;
    st
  | Texp_apply ({ exp_desc = Texp_ident (p, _, vd); _ }, args) ->
    walk_apply ctx st e p vd args
  | Texp_apply (f, args) ->
    let st = walk ctx st f in
    List.fold_left
      (fun st (_, a) ->
        match a with Some a -> walk ctx st a | None -> st)
      st args
  | Texp_match (scrut, cases, _) ->
    let st = walk ctx st scrut in
    join ctx st e.exp_loc (List.map (fun c -> walk_case ctx st c) cases)
  | Texp_try (body, handlers) ->
    (* The handler catches whatever the body raises, so locks held at
       entry are protected on the body's exception edges. *)
    let body_st =
      walk ctx { st with prot = S.union st.prot (held_names st) } body
    in
    let body_st = { body_st with prot = st.prot } in
    let handler_sts = List.map (fun c -> walk_case ctx st c) handlers in
    join ctx st e.exp_loc (body_st :: handler_sts)
  | Texp_ifthenelse (cond, then_, else_opt) ->
    let try_upgrade_lock c =
      match c.exp_desc with
      | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
        match (path_last p, nolabel_args args) with
        | "try_upgrade", a :: _ -> Some (render a, c.exp_loc, false)
        | "not", [ inner ] -> (
          match inner.exp_desc with
          | Texp_apply ({ exp_desc = Texp_ident (q, _, _); _ }, iargs) -> (
            match (path_last q, nolabel_args iargs) with
            | "try_upgrade", a :: _ -> Some (render a, c.exp_loc, true)
            | _ -> None)
          | _ -> None)
        | _ -> None)
      | _ -> None
    in
    let st_cond = walk ctx st cond in
    let then_entry, else_entry =
      match try_upgrade_lock cond with
      | Some (lock, loc, negated) ->
        let locked = acquire st_cond lock loc in
        if negated then (st_cond, locked) else (locked, st_cond)
      | None -> (st_cond, st_cond)
    in
    let then_st = walk ctx then_entry then_ in
    let else_st =
      match else_opt with
      | Some e2 -> walk ctx else_entry e2
      | None -> else_entry
    in
    join ctx st_cond e.exp_loc [ then_st; else_st ]
  | Texp_sequence (a, b) ->
    let st = walk ctx st a in
    walk ctx st b
  | Texp_while (cond, body) ->
    let st = walk ctx st cond in
    let body_st = walk ctx st body in
    if
      (not ctx.no_rule2)
      && (not body_st.diverged)
      && not (S.equal (held_names st) (held_names body_st))
    then
      emit ctx ~loc:e.exp_loc ~rule:"lock-loop"
        "loop body does not preserve the set of held locks across \
         iterations";
    st
  | Texp_for (_, _, lo, hi, _, body) ->
    let st = walk ctx st lo in
    let st = walk ctx st hi in
    let body_st = walk ctx st body in
    if
      (not ctx.no_rule2)
      && (not body_st.diverged)
      && not (S.equal (held_names st) (held_names body_st))
    then
      emit ctx ~loc:e.exp_loc ~rule:"lock-loop"
        "loop body does not preserve the set of held locks across \
         iterations";
    st
  | Texp_setfield (e1, _, lbl, e2) ->
    check_field_access ctx st e.exp_loc lbl;
    let st = walk ctx st e1 in
    walk ctx st e2
  | Texp_field (e1, _, lbl) ->
    let mutable_lbl =
      match lbl.Types.lbl_mut with Asttypes.Mutable -> true | _ -> false
    in
    if mutable_lbl then check_field_access ctx st e.exp_loc lbl;
    walk ctx st e1
  | Texp_assert _ ->
    (* assert false (and a failed assert generally) raises. *)
    raise_edge ctx st e.exp_loc;
    List.fold_left (walk ctx) st (subexprs e)
  | _ ->
    (* Constructs with no lock-relevant control flow: walk the children
       in order with the current state. *)
    List.fold_left (walk ctx) st (subexprs e)

and walk_case : 'k. ctx -> wst -> 'k case -> wst =
 fun ctx st c ->
  match c.c_guard with
  | Some g ->
    let st = walk ctx st g in
    walk ctx st c.c_rhs
  | None -> walk ctx st c.c_rhs

(* A lambda that runs in its own context (deferred call or other
   domain): locks do not flow in, and any lock acquired inside must be
   released before the lambda returns — the closure escapes, so nobody
   else can release it. *)
and walk_fresh ctx ~in_spawn e =
  let final =
    walk ctx { held = []; prot = S.empty; diverged = false; in_spawn } e
  in
  if (not ctx.no_rule2) && not final.diverged then
    List.iter
      (fun (l, loc) ->
        emit ctx ~loc ~rule:"lock-leak"
          (Printf.sprintf
             "write lock %s acquired here is still held at function exit \
              on some path"
             l))
      final.held

and raise_edge ctx st loc =
  if not ctx.no_rule2 then begin
    let leaking =
      List.filter (fun (l, _) -> not (S.mem l st.prot)) st.held
    in
    List.iter
      (fun (l, _) ->
        emit ctx ~loc ~rule:"lock-raise"
          (Printf.sprintf
             "raises while holding write lock %s with no handler on the \
              exception edge (release with write_abort/write_unlock or \
              wrap in critical)"
             l))
      leaking
  end

and join ctx entry loc sts =
  let live = List.filter (fun s -> not s.diverged) sts in
  match live with
  | [] -> { entry with diverged = true }
  | first :: rest ->
    if
      (not ctx.no_rule2)
      && List.exists
           (fun s -> not (S.equal (held_names s) (held_names first)))
           rest
    then
      emit ctx ~loc ~rule:"lock-divergent"
        "branches disagree on which write locks are held at the join \
         point";
    first

and walk_apply ctx st e p vd args =
  let walk_args st =
    List.fold_left
      (fun st (_, a) ->
        match a with Some a -> walk ctx st a | None -> st)
      st args
  in
  match (List.rev (norm_path p), nolabel_args args) with
  | _, [ a; v ] when is_atomic "set" p vd ->
    (* Rule 4: non-atomic read-modify-write outside a lock-held
       region. *)
    let st = walk_args st in
    if contains_get (render a) v && List.length st.held = 0 then
      emit ctx ~loc:e.exp_loc ~rule:"atomic-rmw"
        (Printf.sprintf
           "Atomic.set %s (... Atomic.get %s ...) is a lost-update \
            window; use fetch_and_add / compare_and_set, or hold the \
            lock"
           (render a) (render a));
    st
  | [ "lock"; "Mutex" ], [ m ] ->
    let st = walk_args st in
    acquire st (render m) e.exp_loc
  | [ "unlock"; "Mutex" ], [ m ] ->
    let st = walk_args st in
    release st (render m)
  | "upgrade_or_restart" :: _, a :: _ ->
    let st = walk_args st in
    acquire st (render a) e.exp_loc
  | ("write_unlock" | "write_abort") :: _, a :: _ ->
    let st = walk_args st in
    release st (render a)
  | "critical" :: _, [ a; { exp_desc = Texp_function { cases; _ }; _ } ] ->
    (* [critical l f] runs [f] with [l] held by the caller and releases
       [l] on the exception edge; on normal return the caller still
       holds it. *)
    let lock = render a in
    let inner =
      {
        st with
        held =
          (if List.mem_assoc lock st.held then st.held
           else (lock, e.exp_loc) :: st.held);
        prot = S.add lock st.prot;
      }
    in
    List.iter
      (fun c ->
        let out = walk ctx inner c.c_rhs in
        if (not ctx.no_rule2) && not out.diverged then
          List.iter
            (fun (l, loc) ->
              if not (List.mem_assoc l inner.held) then
                emit ctx ~loc ~rule:"lock-leak"
                  (Printf.sprintf
                     "write lock %s acquired inside a critical body is \
                      still held at its exit"
                     l))
            out.held)
      cases;
    st
  | [ "spawn"; "Domain" ], [ f ] ->
    (match f.exp_desc with
    | Texp_function { cases; _ } ->
      List.iter (fun c -> walk_fresh ctx ~in_spawn:true c.c_rhs) cases
    | _ -> ignore (walk ctx st f));
    st
  | _ when raising_fn p ->
    let st = walk_args st in
    raise_edge ctx st e.exp_loc;
    { st with diverged = true }
  | _ -> walk_args st

and check_field_access ctx st loc (lbl : Types.label_description) =
  if st.in_spawn then begin
    let mutable_lbl =
      match lbl.Types.lbl_mut with Asttypes.Mutable -> true | _ -> false
    in
    if mutable_lbl && Option.is_none (lookup_label ctx.reg lbl) then
      emit ctx ~loc ~rule:"unguarded-access"
        (Printf.sprintf
           "access to unannotated mutable field %s inside a Domain.spawn \
            closure"
           lbl.Types.lbl_name)
  end

(* A top-level binding: set the slug, flip the primitive gate, walk. *)
let walk_top ctx (vb : value_binding) =
  let name = Option.value (pat_var_name vb.vb_pat) ~default:"<toplevel>" in
  ctx.slug <- name;
  ctx.no_rule2 <- in_olc ctx && S.mem name lock_primitives;
  walk_fresh ctx ~in_spawn:false vb.vb_expr;
  ctx.no_rule2 <- false;
  check_version_uses ctx vb

(* Strip the parameter chain off a function to its body. *)
let rec function_body e =
  match e.exp_desc with
  | Texp_function { cases = [ c ]; _ } when Option.is_none c.c_guard ->
    function_body c.c_rhs
  | _ -> e

(* ------------------------------------------------------------------ *)
(* Rule 3: yield-point coverage.                                       *)

let yield_paths rev_comps =
  match rev_comps with
  | ("point" | "fire" | "inject") :: "Fault" :: _ -> true
  | "wait" :: "Condition" :: _ -> true
  | ("sleepf" | "sleep") :: "Unix" :: _ -> true
  | "join" :: "Domain" :: _ -> true
  | ("pop_batch" | "push" | "close") :: "Mpsc_queue" :: _ -> true
  | _ -> false

let sync_paths rev_comps =
  match rev_comps with
  | _ :: m :: _ ->
    List.mem m [ "Atomic"; "Mutex"; "Condition"; "Domain"; "Mpsc_queue" ]
  | _ -> false

let sync_constructor name =
  List.mem name [ "Restart"; "Injected"; "Stale_generation" ]

(* Scan [e] (including nested lambdas) for direct yield sites, direct
   sync touches, and calls to module-local definitions. *)
let scan_expr e =
  let yields = ref false and sync = ref false and calls = ref S.empty in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub x ->
          (match x.exp_desc with
          | Texp_ident (p, _, vd) ->
            let rev = List.rev (norm_path p) in
            if yield_paths rev then yields := true;
            if sync_paths rev || Option.is_some (version_stub vd) then
              sync := true
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
            (* Only applied idents count as calls: a bare variable
               reference must not pull in an unrelated same-named
               binding through the transitive-closure map. *)
            (match norm_path p with
            | [ n ] -> calls := S.add n !calls
            | _ -> ())
          | Texp_construct (_, cd, _) ->
            if sync_constructor cd.Types.cstr_name then sync := true
          | _ -> ());
          Tast_iterator.default_iterator.expr sub x);
      pat =
        (fun (type k) sub (x : k general_pattern) ->
          (match x.pat_desc with
          | Tpat_construct (_, cd, _, _) ->
            if sync_constructor cd.Types.cstr_name then sync := true
          | _ -> ());
          Tast_iterator.default_iterator.pat sub x);
    }
  in
  it.expr it e;
  (!yields, !sync, !calls)

type scan = { s_yields : bool; s_sync : bool; s_calls : S.t }

let scan_of e =
  let y, s, c = scan_expr e in
  { s_yields = y; s_sync = s; s_calls = c }

(* Transitive closure of a predicate over same-module calls. *)
let closure defs base_of =
  let memo : (string, bool) Hashtbl.t = Hashtbl.create 64 in
  let rec has name =
    match Hashtbl.find_opt memo name with
    | Some b -> b
    | None ->
      Hashtbl.replace memo name false;
      (* cycle-safe *)
      let bodies = Hashtbl.find_all defs name in
      let b =
        List.exists
          (fun body ->
            let sc = scan_of body in
            base_of sc || S.exists has sc.s_calls)
          bodies
      in
      Hashtbl.replace memo name b;
      b
  in
  has

let check_yield_points ctx (str : structure) =
  let has_yield = closure ctx.defs (fun sc -> sc.s_yields) in
  let touches_sync = closure ctx.defs (fun sc -> sc.s_sync) in
  let expr_yields e =
    let sc = scan_of e in
    sc.s_yields || S.exists has_yield sc.s_calls
  in
  let expr_sync e =
    let sc = scan_of e in
    sc.s_sync || S.exists touches_sync sc.s_calls
  in
  let flag loc what =
    let diag =
      Report.of_location ~rule:"yield-point"
        ~msg:
          (Printf.sprintf
             "%s touches synchronization but contains no yield site \
              (Fault.point / Condition.wait / sleep); ei_sim cannot \
              interleave it"
             what)
        loc ~file:ctx.file
    in
    ctx.findings <- { diag; slug = ctx.slug } :: ctx.findings
  in
  (* While loops, wherever they appear. *)
  let current = ref "<toplevel>" in
  let self_rec_calls name body =
    let sc = scan_of body in
    S.mem name sc.s_calls
  in
  let it =
    {
      Tast_iterator.default_iterator with
      value_binding =
        (fun sub vb ->
          (match pat_var_name vb.vb_pat with
          | Some name -> (
            let saved = !current in
            current := name;
            ctx.slug <- name;
            (* Self-recursive retry function. *)
            let body = function_body vb.vb_expr in
            (match vb.vb_expr.exp_desc with
            | Texp_function _
              when self_rec_calls name body
                   && expr_sync body
                   && not (expr_yields body) ->
              flag vb.vb_pat.pat_loc
                (Printf.sprintf "recursive retry function %s" name)
            | _ -> ());
            Tast_iterator.default_iterator.value_binding sub vb;
            current := saved)
          | None -> Tast_iterator.default_iterator.value_binding sub vb);
          ());
      expr =
        (fun sub e ->
          (match e.exp_desc with
          | Texp_while (cond, body) ->
            if
              (expr_sync body || expr_sync cond)
              && not (expr_yields body || expr_yields cond)
            then begin
              ctx.slug <- !current;
              flag e.exp_loc "while loop"
            end
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.structure it str

(* ------------------------------------------------------------------ *)
(* Module driver.                                                      *)

let collect_defs defs (str : structure) =
  let it =
    {
      Tast_iterator.default_iterator with
      value_binding =
        (fun sub vb ->
          (match (pat_var_name vb.vb_pat, vb.vb_expr.exp_desc) with
          (* Only function bindings enter the call graph: plain value
             bindings (e.g. two locals both named [r]) would otherwise
             alias across the whole module. *)
          | Some name, Texp_function _ -> Hashtbl.add defs name vb.vb_expr
          | _ -> ());
          Tast_iterator.default_iterator.value_binding sub vb);
    }
  in
  it.structure it str

let analyze_structure ~file ~reg (str : structure) =
  let ctx =
    {
      file;
      reg;
      findings = [];
      inventory = [];
      slug = "<toplevel>";
      no_rule2 = false;
      unguarded_idents = Hashtbl.create 8;
      defs = Hashtbl.create 64;
      version_types = S.empty;
    }
  in
  collect_defs ctx.defs str;
  (* Rule 1 declarations + rules 2/4 walk, in structure order so
     module-level mutable state is known before the code that uses
     it. *)
  let rec do_item (item : structure_item) =
    match item.str_desc with
    | Tstr_type (_, tds) -> List.iter (check_type_declaration ctx) tds
    | Tstr_primitive vd -> check_stub ctx vd
    | Tstr_value (_, vbs) ->
      List.iter
        (fun vb ->
          check_module_binding ctx vb;
          walk_top ctx vb)
        vbs
    | Tstr_eval (e, _) ->
      ctx.slug <- "<toplevel>";
      ignore
        (walk ctx
           { held = []; prot = S.empty; diverged = false; in_spawn = false }
           e)
    | Tstr_module mb -> do_module_expr mb.mb_expr
    | Tstr_recmodule mbs -> List.iter (fun mb -> do_module_expr mb.mb_expr) mbs
    | _ -> ()
  and do_module_expr me =
    match me.mod_desc with
    | Tmod_structure s -> List.iter do_item s.str_items
    | Tmod_constraint (me, _, _, _) -> do_module_expr me
    | Tmod_functor (_, me) -> do_module_expr me
    | _ -> ()
  in
  List.iter do_item str.str_items;
  ctx.slug <- "<toplevel>";
  check_yield_points ctx str;
  {
    findings = List.rev ctx.findings;
    inventory = List.rev ctx.inventory;
  }

(* ------------------------------------------------------------------ *)
(* Cmt loading.                                                        *)

type cunit = {
  modname : string;  (* Ei_btree__Btree *)
  source : string;  (* lib/btree/btree.mli *)
  annots : Cmt_format.binary_annots;
}

let load_unit path =
  match Cmt_format.read_cmt path with
  | { cmt_modname; cmt_sourcefile = Some source; cmt_annots; _ } ->
    Some { modname = cmt_modname; source; annots = cmt_annots }
  | _ -> None
  | exception _ -> None

let structure_of u =
  match u.annots with Cmt_format.Implementation s -> Some s | _ -> None

let load_cmt path =
  Option.bind (load_unit path) (fun u ->
      match structure_of u with
      | Some str when not (Filename.check_suffix u.source ".ml-gen") ->
        Some (u.source, str)
      | _ -> None)

let analyze_cmts paths =
  let mods = List.filter_map load_cmt paths in
  let mods =
    List.sort (fun (a, _) (b, _) -> String.compare a b) mods
  in
  (* Byte and native compilation both emit a cmt for the same source
     (-bin-annot applies to both); analyze each module once. *)
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  let mods =
    List.filter
      (fun (file, _) ->
        if Hashtbl.mem seen file then false
        else begin
          Hashtbl.add seen file ();
          true
        end)
      mods
  in
  let reg : registry = Hashtbl.create 256 in
  List.iter (fun (_, str) -> registry_of_structure reg str) mods;
  let results =
    List.map (fun (file, str) -> analyze_structure ~file ~reg str) mods
  in
  {
    findings = List.concat_map (fun (r : result) -> r.findings) results;
    inventory = List.concat_map (fun (r : result) -> r.inventory) results;
  }

(* ------------------------------------------------------------------ *)
(* Rule 5: exports without a caller.                                   *)

(* Only a reference from another compilation unit keeps a top-level
   [val] of an interface alive.  Reference paths are resolved to
   [(unit, value)] through module aliases — dune's generated library
   alias modules ([Ei_btree.Btree] is [Ei_btree__Btree]) and local
   [module X = P] bindings — and the typer has already qualified every
   name an [open] brought into scope.  A unit used as a whole (a
   functor argument, a packed first-class module, an [include], a
   signature constraint) uses every value it exports. *)

(* Every cmt or cmti once (byte and native compilation may both emit
   one per source), in source order. *)
let load_units paths =
  List.filter_map load_unit paths
  |> List.sort_uniq (fun a b -> String.compare a.source b.source)

(* [(unit, submodule)] -> the path a top-level [module X = P] names. *)
type aliases = (string * string, string list) Hashtbl.t

(* Rewrite a leading [U.X] alias until the head is a unit itself; the
   fuel stops a (type-incorrect) alias cycle. *)
let rec canon (aliases : aliases) ?(fuel = 16) comps =
  match comps with
  | u :: x :: rest when fuel > 0 -> (
    match Hashtbl.find_opt aliases (u, x) with
    | Some target -> canon aliases ~fuel:(fuel - 1) (target @ rest)
    | None -> comps)
  | _ -> comps

(* Walk one implementation, reporting each [(unit, value)] reference
   and each whole-unit use. *)
let unit_refs aliases ~value ~whole (str : structure) =
  let locals : (string, string list) Hashtbl.t = Hashtbl.create 8 in
  let rec comps = function
    | Path.Pident id when Ident.persistent id -> Some [ Ident.name id ]
    | Path.Pident id -> Hashtbl.find_opt locals (Ident.unique_name id)
    | Path.Pdot (p, s) -> Option.map (fun c -> canon aliases (c @ [ s ])) (comps p)
    | Path.Papply _ | Path.Pextra_ty _ -> None
  in
  let bind_alias id (me : module_expr) =
    match (id, me.mod_desc) with
    | Some id, Tmod_ident (p, _) ->
      Option.iter
        (fun c -> Hashtbl.replace locals (Ident.unique_name id) c)
        (comps p);
      true
    | _ -> false
  in
  let default = Tast_iterator.default_iterator in
  let it =
    {
      default with
      expr =
        (fun sub e ->
          match e.exp_desc with
          | Texp_ident (Path.Pdot (m, v), _, _) ->
            (match comps m with Some [ u ] -> value u v | _ -> ())
          | Texp_letmodule (id, _, _, me, body) when bind_alias id me ->
            sub.expr sub body
          | _ -> default.expr sub e);
      module_binding =
        (fun sub mb ->
          if not (bind_alias mb.mb_id mb.mb_expr) then
            default.module_binding sub mb);
      open_declaration =
        (fun sub od ->
          match od.open_expr.mod_desc with
          | Tmod_ident _ -> ()
          | _ -> default.open_declaration sub od);
      module_expr =
        (fun sub me ->
          (match me.mod_desc with
          | Tmod_ident (p, _) -> (
            match comps p with Some [ u ] -> whole u | _ -> ())
          | _ -> ());
          default.module_expr sub me);
    }
  in
  it.structure it str

(* Top-level [module X = P] aliases of every implementation. *)
let collect_aliases units =
  let aliases : aliases = Hashtbl.create 256 in
  List.iter
    (fun u ->
      match structure_of u with
      | None -> ()
      | Some str ->
        List.iter
          (fun item ->
            match item.str_desc with
            | Tstr_module
                { mb_id = Some id; mb_expr = { mod_desc = Tmod_ident (p, _); _ }; _ }
              ->
              Hashtbl.replace aliases
                (u.modname, Ident.name id)
                (path_comps p)
            | _ -> ())
          str.str_items)
    units;
  aliases

let dead_exports ~interfaces ~prod ~test =
  let prod = load_units prod and test = load_units test in
  let aliases = collect_aliases (prod @ test) in
  let referenced units =
    let values = Hashtbl.create 4096 and wholes = Hashtbl.create 64 in
    List.iter
      (fun u ->
        Option.iter
          (unit_refs aliases
             ~value:(fun m v -> Hashtbl.replace values (m, v) ())
             ~whole:(fun m -> Hashtbl.replace wholes m ()))
          (structure_of u))
      units;
    fun m v -> Hashtbl.mem values (m, v) || Hashtbl.mem wholes m
  in
  let in_prod = referenced prod and in_test = referenced test in
  List.concat_map
    (fun u ->
      match u.annots with
      | Cmt_format.Interface sg ->
        List.filter_map
          (fun item ->
            match item.sig_desc with
            | Tsig_value vd when not (in_prod u.modname vd.val_name.txt) ->
              let name = vd.val_name.txt in
              let qualified = module_tail u.modname ^ "." ^ name in
              let rule, msg =
                if in_test u.modname name then
                  ( "test-only-export",
                    qualified ^ " is exported, but only test/ uses it" )
                else
                  ( "dead-export",
                    qualified
                    ^ " is exported, but no other unit in lib bin bench \
                       examples tools test uses it" )
              in
              Some
                {
                  diag = Report.of_location ~rule ~msg vd.val_loc ~file:u.source;
                  slug = name;
                }
            | _ -> None)
          sg.sig_items
      | _ -> [])
    (load_units interfaces)

(* ------------------------------------------------------------------ *)
(* Baseline.                                                           *)

(* One entry per line: [rule<space>file<space>slug], # comments.  Keys
   are stable across edits because they carry no line numbers. *)
let finding_key f = Printf.sprintf "%s %s %s" f.diag.rule f.diag.file f.slug

let parse_baseline content =
  String.split_on_char '\n' content
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if String.equal line "" || Char.equal line.[0] '#' then None
         else Some line)

let apply_baseline ~baseline findings =
  let used : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let keep, suppressed =
    List.partition
      (fun f ->
        let k = finding_key f in
        if List.exists (String.equal k) baseline then begin
          Hashtbl.replace used k ();
          false
        end
        else true)
      findings
  in
  let unused =
    List.filter (fun b -> not (Hashtbl.mem used b)) baseline
  in
  (keep, List.length suppressed, unused)

let rules_help () =
  String.concat "\n"
    [
      Printf.sprintf "%-16s %s" "unguarded-state"
        "mutable module/record state needs [@ei.guarded_by]/[@ei.single_domain]; \
         an [@ei.version_word] field is touched only by its stubs";
      Printf.sprintf "%-16s %s" "unguarded-access"
        "unannotated mutable state touched inside a Domain.spawn closure";
      Printf.sprintf "%-16s %s" "lock-leak"
        "write lock acquired but not released on every normal exit";
      Printf.sprintf "%-16s %s" "lock-divergent"
        "branches disagree on held locks at a join point";
      Printf.sprintf "%-16s %s" "lock-raise"
        "raise while holding a write lock with no releasing handler";
      Printf.sprintf "%-16s %s" "lock-loop"
        "loop body does not preserve the held-lock set";
      Printf.sprintf "%-16s %s" "yield-point"
        "sync-touching retry loop without a Fault.point yield site";
      Printf.sprintf "%-16s %s" "atomic-rmw"
        "Atomic.set of a value derived from Atomic.get outside a lock";
      Printf.sprintf "%-16s %s" "dead-export"
        "top-level val of a lib/ interface no other unit in lib bin bench \
         examples tools test references";
      Printf.sprintf "%-16s %s" "test-only-export"
        "top-level val of a lib/ interface only test/ references";
    ]
