(* The harness the bench executables share: the flag parser, one JSON
   value type with its writer and reader, timing on lzbench's process
   CPU clock with its quantiles and host fingerprint, and one gate.

   A bench writes BENCH_<name>.json with one section per mode, "full"
   and "smoke". A run replaces its own mode's section and keeps the
   other, so one committed file is the baseline of both modes. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let member k = function
    | Obj kv -> Option.value (List.assoc_opt k kv) ~default:Null
    | _ -> Null

  let path p v =
    List.fold_left (fun v k -> member k v) v (String.split_on_char '.' p)

  let to_float = function
    | Int i -> float_of_int i
    | Num x -> x
    | _ -> nan

  let quote b s =
    Buffer.add_char b '"';
    String.iter
      (function
        | '"' -> Buffer.add_string b {|\"|}
        | '\\' -> Buffer.add_string b {|\\|}
        | c when c < ' ' ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'

  (* A container of scalars goes on one line when it is short; anything
     else puts one member per line, so committed files diff by line. *)
  let rec write b ind v =
    let scalar = function Arr (_ :: _) | Obj (_ :: _) -> false | _ -> true in
    let items open_ close vs item =
      let one_line () =
        let b' = Buffer.create 64 in
        Buffer.add_string b' open_;
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_string b' ", ";
            item b' "" x)
          vs;
        Buffer.add_string b' close;
        Buffer.contents b'
      in
      let flat = List.for_all (fun x -> scalar (snd x)) vs in
      let line = if flat then Some (one_line ()) else None in
      match line with
      | Some l when String.length l + String.length ind <= 100 ->
          Buffer.add_string b l
      | _ ->
          let ind' = ind ^ "  " in
          Buffer.add_string b (String.trim open_ ^ "\n");
          List.iteri
            (fun i x ->
              if i > 0 then Buffer.add_string b ",\n";
              Buffer.add_string b ind';
              item b ind' x)
            vs;
          Buffer.add_string b ("\n" ^ ind ^ String.trim close)
    in
    match v with
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Int i -> Buffer.add_string b (string_of_int i)
    | Num x when Float.is_finite x ->
        (* A whole number keeps a ".0" so that it reads back as a
           [Num]. *)
        let t = Printf.sprintf "%.6g" x in
        Buffer.add_string b t;
        if String.for_all (fun c -> c = '-' || (c >= '0' && c <= '9')) t
        then Buffer.add_string b ".0"
    | Num _ -> Buffer.add_string b "null"
    | Str s -> quote b s
    | Arr [] -> Buffer.add_string b "[]"
    | Obj [] -> Buffer.add_string b "{}"
    | Arr vs ->
        items "[" "]"
          (List.map (fun v -> ("", v)) vs)
          (fun b ind (_, v) -> write b ind v)
    | Obj kvs ->
        items "{ " " }" kvs (fun b ind (k, v) ->
            quote b k;
            Buffer.add_string b ": ";
            write b ind v)

  let to_string v =
    let b = Buffer.create 4096 in
    write b "" v;
    Buffer.add_char b '\n';
    Buffer.contents b

  (* Raises [Failure] naming the byte offset of the first error. *)
  let of_string s =
    let n = String.length s and i = ref 0 in
    let fail what = failwith (Printf.sprintf "JSON: %s at byte %d" what !i) in
    let rec skip () =
      if !i < n && String.contains " \t\r\n" s.[!i] then begin
        incr i;
        skip ()
      end
    in
    let peek () =
      skip ();
      if !i < n then s.[!i] else fail "unexpected end"
    in
    let expect c =
      if peek () = c then incr i
      else fail (Printf.sprintf "expected '%c'" c)
    in
    let literal w v =
      let m = String.length w in
      if !i + m <= n && String.sub s !i m = w then begin
        i := !i + m;
        v
      end
      else fail "bad literal"
    in
    let str () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !i >= n then fail "unterminated string";
        let c = s.[!i] in
        incr i;
        match c with
        | '"' -> Buffer.contents b
        | '\\' when !i < n ->
            let e = s.[!i] in
            incr i;
            (match e with
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | '"' | '\\' | '/' -> Buffer.add_char b e
            | 'u' when !i + 4 <= n -> (
                match int_of_string_opt ("0x" ^ String.sub s !i 4) with
                | Some u when Uchar.is_valid u ->
                    i := !i + 4;
                    Buffer.add_utf_8_uchar b (Uchar.of_int u)
                | _ -> fail "bad \\u escape")
            | _ -> fail "bad escape");
            go ()
        | c ->
            Buffer.add_char b c;
            go ()
      in
      go ()
    in
    let number () =
      let start = !i in
      while !i < n && String.contains "0123456789+-.eE" s.[!i] do
        incr i
      done;
      let t = String.sub s start (!i - start) in
      match int_of_string_opt t with
      | Some k -> Int k
      | None -> (
          match float_of_string_opt t with
          | Some x when t <> "" -> Num x
          | _ -> fail "bad number")
    in
    let seq close item =
      let rec more acc =
        let acc = item () :: acc in
        match peek () with
        | ',' ->
            incr i;
            more acc
        | c when c = close ->
            incr i;
            List.rev acc
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      if peek () = close then begin
        incr i;
        []
      end
      else more []
    in
    let rec value () =
      match peek () with
      | '{' ->
          incr i;
          Obj
            (seq '}' (fun () ->
                 let k = str () in
                 expect ':';
                 (k, value ())))
      | '[' ->
          incr i;
          Arr (seq ']' value)
      | '"' -> Str (str ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | _ -> number ()
    in
    let v = value () in
    skip ();
    if !i <> n then fail "trailing data";
    v
end

(* ------------------------------------------------------------------ *)
(* Timing. Host time is process CPU time; a bench with parallel host
   domains times wall clock instead. *)

let cpu_time f =
  let t0 = Measure.cpu () in
  f ();
  Measure.cpu () -. t0

let wall_time f =
  let t0 = Measure.wall () in
  f ();
  Measure.wall () -. t0

(* Interleaved repetitions behind every timed ratio: each repetition
   runs every engine once, so a slow stretch of the host lands on all
   of them instead of on one. *)
let reps = 9

let median = Measure.median

let stats xs =
  Json.Obj
    [ ("median", Json.Num (Measure.median xs));
      ("q1", Json.Num (Measure.quantile xs 0.25));
      ("q3", Json.Num (Measure.quantile xs 0.75));
      ("n", Json.Int (Array.length xs)) ]

(* ------------------------------------------------------------------ *)
(* Checks. *)

type check =
  | Same of string  (** deterministic: equals the baseline's value *)
  | Not_above of string  (** deterministic: at most the baseline's value *)
  | Ratio of string
      (** same-process host-time ratio: the median is at most [band]
          below the baseline's median *)
  | Bound of string * bool  (** absolute bound: what was checked, held *)

let band = 0.20

let at_least what v floor =
  Bound (Printf.sprintf "%s %.4g >= %g" what v floor, v >= floor)

let at_most what v ceiling =
  Bound (Printf.sprintf "%s %.4g <= %g" what v ceiling, v <= ceiling)

let compact v = String.trim (Json.to_string v)

(* Where two values differ, leaf by leaf; a list names the elements it
   lost and gained. *)
let rec diffs p now was =
  match (now, was) with
  | _ when now = was -> []
  | Json.Obj a, Json.Obj b when List.map fst a = List.map fst b ->
      List.concat_map (fun (k, v) -> diffs (p ^ "." ^ k) v (List.assoc k b)) a
  | Json.Arr a, Json.Arr b ->
      let minus x y = List.filter (fun v -> not (List.mem v y)) x in
      let show l = String.concat ", " (List.map compact l) in
      [ Printf.sprintf "%s lost [%s], gained [%s]" p (show (minus b a))
          (show (minus a b)) ]
  | _ -> [ Printf.sprintf "%s %s, baseline %s" p (compact now) (compact was) ]

(* One verdict per check. [baseline] is [None] when the run is not
   checking, so only the bounds apply, and [Some (Error why)] when
   the baseline could not be had. *)
let verdicts ~baseline doc checks =
  let against p base f =
    match (Json.path p doc, Json.path p base) with
    | Json.Null, _ -> Error (p ^ " missing from this run")
    | _, Json.Null -> Error (p ^ " missing from the baseline")
    | now, was -> f now was
  in
  let verdict base c =
    match (c, base) with
    | Bound (what, held), _ -> Some (if held then Ok what else Error what)
    | _, None -> None
    | Same p, Some base ->
        Some
          (against p base (fun now was ->
               match diffs p now was with
               | [] -> Ok (p ^ " equals the baseline")
               | ds -> Error ("changed: " ^ String.concat "; " ds)))
    | Not_above p, Some base ->
        Some
          (against p base (fun now was ->
               let x = Json.to_float now and x0 = Json.to_float was in
               if x <= x0 then
                 Ok (Printf.sprintf "%s %g <= baseline %g" p x x0)
               else Error (Printf.sprintf "%s rose: %g, baseline %g" p x x0)))
    | Ratio p, Some base ->
        Some
          (against p base (fun now was ->
               let m = Json.to_float (Json.member "median" now)
               and m0 = Json.to_float (Json.member "median" was) in
               if m >= (1. -. band) *. m0 then
                 Ok (Printf.sprintf "%s median %.3f, baseline %.3f" p m m0)
               else
                 Error
                   (Printf.sprintf
                      "%s median %.3f is more than %.0f%% below baseline %.3f"
                      p m (100. *. band) m0)))
  in
  let base = match baseline with Some (Ok b) -> Some b | _ -> None in
  let vs = List.filter_map (verdict base) checks in
  match baseline with Some (Error why) -> Error why :: vs | _ -> vs

(* ------------------------------------------------------------------ *)
(* A run. *)

type t = {
  name : string;
  smoke : bool;
  check : string option;  (** baseline file under --check *)
  host : Measure.fingerprint;
}

let parse_args ~name args =
  let rec go smoke check = function
    | [] -> Ok (smoke, check)
    | "--smoke" :: tl -> go true check tl
    | "--check" :: f :: tl when not (String.starts_with ~prefix:"-" f) ->
        go smoke (Some f) tl
    | "--check" :: tl ->
        go smoke (Some (Printf.sprintf "BENCH_%s.json" name)) tl
    | a :: _ -> Error a
  in
  go false None args

let init name =
  match parse_args ~name (List.tl (Array.to_list Sys.argv)) with
  | Ok (smoke, check) ->
      { name; smoke; check; host = Measure.start_fingerprint () }
  | Error a ->
      Printf.eprintf
        "%s: unknown argument %S\nusage: %s.exe [--smoke] [--check [FILE]]\n"
        name a name;
      exit 2

let mode t = if t.smoke then "smoke" else "full"

let say t fmt =
  Printf.ksprintf (fun s -> Printf.printf "%s: %s\n%!" t.name s) fmt

let read path =
  match Measure.read_file path with
  | None -> Error (path ^ " not found")
  | Some s -> (
      try Ok (Json.of_string s) with Failure e -> Error (path ^ ": " ^ e))

(* The [mode] section of the baseline file: a missing file or section
   fails the check. *)
let baseline ~mode path =
  Result.bind (read path) (fun j ->
      match Json.member mode j with
      | Json.Null ->
          Error (Printf.sprintf "%s has no %s-mode baseline" path mode)
      | b -> Ok b)

(* Write this run's section of BENCH_<name>.json beside the host
   fingerprint, then print every verdict and exit 1 if one failed. *)
let finish t fields checks =
  let file = Printf.sprintf "BENCH_%s.json" t.name and mode = mode t in
  (* Read before the run's own file is rewritten. *)
  let baseline = Option.map (baseline ~mode) t.check in
  let noisy, host = Measure.host_json t.host in
  let host = Json.member "host" (Json.of_string host) in
  let others = match read file with Ok j -> j | Error _ -> Json.Null in
  let section m =
    if m = mode then Some (m, Json.Obj (("host", host) :: fields))
    else
      match Json.member m others with Json.Null -> None | d -> Some (m, d)
  in
  let text =
    Json.to_string
      (Obj
         (("bench", Str t.name)
         :: List.filter_map section [ "full"; "smoke" ]))
  in
  Out_channel.with_open_bin file (fun oc -> output_string oc text);
  say t "wrote %s (%s mode%s)" file mode (if noisy then ", host noisy" else "");
  (* Checked as read back, so the run and the baseline went through
     the same writer. *)
  let vs = verdicts ~baseline (Json.member mode (Json.of_string text)) checks in
  List.iter
    (function Ok s -> say t "ok: %s" s | Error s -> say t "FAIL: %s" s)
    vs;
  if List.exists Result.is_error vs then exit 1
