module Rng = Rr_util.Rng
module Bitset = Rr_util.Bitset
module Iheap = Rr_util.Indexed_heap
module Pheap = Rr_util.Pairing_heap
module Uf = Rr_util.Union_find

let fail fmt = Printf.ksprintf (fun m -> Some m) fmt

module IntSet = Set.Make (Int)

(* ------------------------------------------------------------------ *)
(* Bitset vs Set.Make(Int)                                              *)

let check_bitset rng =
  (* Widths straddling the 62-bit word boundary are the interesting ones. *)
  let width = 1 + Rng.int rng 70 in
  let a = ref (Bitset.create width) and ma = ref IntSet.empty in
  let b = ref (Bitset.create width) and mb = ref IntSet.empty in
  let agree label s m =
    if Bitset.to_list s <> IntSet.elements m then
      fail "bitset %s: elements %s vs model %s" label
        (String.concat "," (List.map string_of_int (Bitset.to_list s)))
        (String.concat "," (List.map string_of_int (IntSet.elements m)))
    else if Bitset.cardinal s <> IntSet.cardinal m then
      fail "bitset %s: cardinal %d vs model %d" label (Bitset.cardinal s)
        (IntSet.cardinal m)
    else if Bitset.is_empty s <> IntSet.is_empty m then fail "bitset %s: is_empty" label
    else if Bitset.width s <> width then
      fail "bitset %s: width %d changed to %d" label width (Bitset.width s)
    else if Bitset.choose s <> IntSet.min_elt_opt m then fail "bitset %s: choose" label
    else
      let x = Rng.int rng width in
      if Bitset.mem s x <> IntSet.mem x m then fail "bitset %s: mem %d" label x
      else None
  in
  let result = ref None in
  let steps = 120 in
  let i = ref 0 in
  while !result = None && !i < steps do
    incr i;
    let x = Rng.int rng width in
    (match Rng.int rng 8 with
     | 0 | 1 ->
       a := Bitset.add !a x;
       ma := IntSet.add x !ma
     | 2 ->
       a := Bitset.remove !a x;
       ma := IntSet.remove x !ma
     | 3 ->
       b := Bitset.add !b x;
       mb := IntSet.add x !mb
     | 4 ->
       let u = Bitset.union !a !b and mu = IntSet.union !ma !mb in
       result := agree "union" u mu
     | 5 ->
       let u = Bitset.inter !a !b and mu = IntSet.inter !ma !mb in
       result := agree "inter" u mu
     | 6 ->
       let u = Bitset.diff !a !b and mu = IntSet.diff !ma !mb in
       result := agree "diff" u mu
     | _ ->
       if Bitset.subset !a !b <> IntSet.subset !ma !mb then
         result := fail "bitset subset disagrees"
       else if Bitset.equal !a !b <> IntSet.equal !ma !mb then
         result := fail "bitset equal disagrees"
       else if
         not
           (Bitset.equal
              (Bitset.of_list width (Bitset.to_list !a))
              !a)
       then result := fail "bitset of_list/to_list not an identity");
    if !result = None then result := agree "a" !a !ma;
    if !result = None then result := agree "b" !b !mb
  done;
  (* full covers every element *)
  match !result with
  | Some _ as r -> r
  | None ->
    let f = Bitset.full width in
    if Bitset.cardinal f <> width then fail "bitset full %d has cardinal %d" width (Bitset.cardinal f)
    else if not (Bitset.subset !a f) then fail "bitset not a subset of full"
    else None

(* ------------------------------------------------------------------ *)
(* Indexed_heap vs association table                                    *)

(* The (key, priority) the heap yields: [pop], then the key's entry in
   the heap's priority array. *)
let pop_min h prio =
  let k = Iheap.pop h in
  if k < 0 then None else Some (k, prio.(k))

let check_indexed_heap rng =
  let cap = 4 + Rng.int rng 40 in
  let keyed = Array.make cap nan in
  let h = Iheap.create ~prio:keyed cap in
  let model = Hashtbl.create 16 in
  let prio () = Float.of_int (Rng.int rng 50) /. 4.0 in
  let model_min () =
    Hashtbl.fold
      (fun k p acc ->
        match acc with Some (_, bp) when bp <= p -> acc | _ -> Some (k, p))
      model None
  in
  let result = ref None in
  let steps = 150 in
  let i = ref 0 in
  while !result = None && !i < steps do
    incr i;
    let k = Rng.int rng cap in
    (match Rng.int rng 6 with
     | 0 | 1 ->
       if not (Iheap.mem h k) then begin
         let p = prio () in
         Iheap.insert h k p;
         Hashtbl.replace model k p
       end
     | 2 ->
       (* decrease-key on a queued key *)
       if Iheap.mem h k then begin
         let p = Hashtbl.find model k in
         let p' = p -. Float.of_int (1 + Rng.int rng 8) in
         Iheap.decrease h k p';
         Hashtbl.replace model k p'
       end
     | 3 ->
       let p = prio () in
       let expected =
         match Hashtbl.find_opt model k with
         | None -> Some p
         | Some old -> if p < old then Some p else None
       in
       Iheap.insert_or_decrease h k p;
       (match expected with Some p -> Hashtbl.replace model k p | None -> ())
     | 4 -> (
       match (pop_min h keyed, model_min ()) with
       | None, None -> ()
       | None, Some _ -> result := fail "indexed_heap empty but model is not"
       | Some _, None -> result := fail "indexed_heap popped from empty model"
       | Some (k, p), Some (_, mp) ->
         if p <> mp then
           result := fail "indexed_heap pop priority %g, model min %g" p mp
         else if Hashtbl.find_opt model k <> Some p then
           result := fail "indexed_heap popped key %d not at min priority" k
         else Hashtbl.remove model k)
     | _ ->
       if Rng.int rng 20 = 0 then begin
         Iheap.clear h;
         Hashtbl.reset model
       end);
    if !result = None then begin
      if Iheap.cardinal h <> Hashtbl.length model then
        result :=
          fail "indexed_heap cardinal %d vs model %d" (Iheap.cardinal h)
            (Hashtbl.length model)
      else begin
        let k = Rng.int rng cap in
        match Hashtbl.find_opt model k with
        | Some p ->
          if not (Iheap.mem h k) then result := fail "indexed_heap lost key %d" k
          else if Iheap.priority h k <> p then
            result := fail "indexed_heap priority of %d is %g, model %g" k (Iheap.priority h k) p
        | None ->
          if Iheap.mem h k then result := fail "indexed_heap ghost key %d" k
      end
    end
  done;
  (* Drain: the pop sequence must equal the model sorted by priority. *)
  match !result with
  | Some _ as r -> r
  | None ->
    let rec drain acc = match pop_min h keyed with
      | None -> List.rev acc
      | Some (_, p) -> drain (p :: acc)
    in
    let pops = drain [] in
    let sorted =
      List.sort compare (Hashtbl.fold (fun _ p acc -> p :: acc) model [])
    in
    if pops <> sorted then fail "indexed_heap drain order differs from sorted reference"
    else None

(* ------------------------------------------------------------------ *)
(* Pairing_heap vs alive-handle table                                   *)

let check_pairing_heap rng =
  let h = Pheap.create () in
  let alive : (int, float * int Pheap.handle) Hashtbl.t = Hashtbl.create 16 in
  let next = ref 0 in
  let model_min () =
    Hashtbl.fold
      (fun _ (p, _) acc -> match acc with Some bp when bp <= p -> acc | _ -> Some p)
      alive None
  in
  let result = ref None in
  let steps = 150 in
  let i = ref 0 in
  while !result = None && !i < steps do
    incr i;
    (match Rng.int rng 5 with
     | 0 | 1 ->
       let p = Float.of_int (Rng.int rng 60) /. 4.0 in
       let id = !next in
       incr next;
       let hd = Pheap.insert h p id in
       Hashtbl.replace alive id (p, hd)
     | 2 ->
       (* decrease a random alive handle *)
       let ids = Hashtbl.fold (fun id _ acc -> id :: acc) alive [] in
       if ids <> [] then begin
         let id = List.nth ids (Rng.int rng (List.length ids)) in
         let p, hd = Hashtbl.find alive id in
         let p' = p -. Float.of_int (1 + Rng.int rng 8) in
         Pheap.decrease h hd p';
         Hashtbl.replace alive id (p', hd);
         if Pheap.priority hd <> p' then result := fail "pairing_heap handle priority stale"
         else if Pheap.value hd <> id then result := fail "pairing_heap handle value changed"
       end
     | 3 -> (
       match (Pheap.find_min h, model_min ()) with
       | None, None -> ()
       | Some (p, _), Some mp when p = mp -> ()
       | Some (p, _), Some mp -> result := fail "pairing_heap find_min %g, model %g" p mp
       | Some _, None -> result := fail "pairing_heap non-empty but model empty"
       | None, Some _ -> result := fail "pairing_heap empty but model is not")
     | _ -> (
       match (Pheap.pop_min h, model_min ()) with
       | None, None -> ()
       | Some (p, id), Some mp ->
         if p <> mp then result := fail "pairing_heap pop %g, model min %g" p mp
         else (
           match Hashtbl.find_opt alive id with
           | Some (pm, _) when pm = p -> Hashtbl.remove alive id
           | Some (pm, _) ->
             result := fail "pairing_heap popped %d at %g, model says %g" id p pm
           | None -> result := fail "pairing_heap popped dead value %d" id)
       | Some _, None -> result := fail "pairing_heap popped from empty model"
       | None, Some _ -> result := fail "pairing_heap empty but model is not"));
    if !result = None && Pheap.cardinal h <> Hashtbl.length alive then
      result :=
        fail "pairing_heap cardinal %d vs model %d" (Pheap.cardinal h)
          (Hashtbl.length alive)
  done;
  !result

(* ------------------------------------------------------------------ *)
(* Union_find vs label array                                            *)

let check_union_find rng =
  let n = 2 + Rng.int rng 50 in
  let uf = Uf.create n in
  let label = Array.init n Fun.id in
  let relabel a b =
    (* naive: merge b's class into a's *)
    let la = label.(a) and lb = label.(b) in
    if la = lb then false
    else begin
      for i = 0 to n - 1 do
        if label.(i) = lb then label.(i) <- la
      done;
      true
    end
  in
  let classes () =
    let seen = Hashtbl.create 8 in
    Array.iter (fun l -> Hashtbl.replace seen l ()) label;
    Hashtbl.length seen
  in
  let result = ref None in
  let steps = 100 in
  let i = ref 0 in
  while !result = None && !i < steps do
    incr i;
    let a = Rng.int rng n and b = Rng.int rng n in
    (match Rng.int rng 3 with
     | 0 | 1 ->
       let merged = Uf.union uf a b in
       let model_merged = relabel a b in
       if merged <> model_merged then
         result := fail "union_find union %d %d returned %b, model %b" a b merged model_merged
     | _ ->
       if Uf.same uf a b <> (label.(a) = label.(b)) then
         result := fail "union_find same %d %d disagrees with model" a b);
    if !result = None then begin
      if Uf.count uf <> classes () then
        result := fail "union_find count %d vs model %d" (Uf.count uf) (classes ());
      (* find must be a consistent representative *)
      let c = Rng.int rng n and d = Rng.int rng n in
      if Uf.find uf c = Uf.find uf d && label.(c) <> label.(d) then
        result := fail "union_find find merged distinct classes %d %d" c d;
      if Uf.find uf c <> Uf.find uf d && label.(c) = label.(d) then
        result := fail "union_find find split one class %d %d" c d
    end
  done;
  !result
